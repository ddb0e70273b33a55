"""The benchmark's span tracer still installs on every binding it lists.

`perfbench/tracer.py` wraps each traced function in every module that
binds it and refuses to install when a binding has moved, so a refactor
that drops or renames one breaks `perfbench/run.py --trace 1`.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_every_binding_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import BINDINGS, Tracer, _resolve

    originals = []
    for _, home, attr, modules, _ in BINDINGS:
        fn = getattr(*_resolve(home, attr))
        for module in modules:
            originals.append((f"{module}.{attr}", *_resolve(module, attr), fn))

    tracer = Tracer()
    try:
        tracer.install()
        wrapped = [binding for binding, owner, leaf, fn in originals
                   if getattr(owner, leaf) is not fn]
    finally:
        tracer.uninstall()
    assert len(originals) == 60
    assert sorted(tracer.installed) == sorted(b for b, *_ in originals)
    assert sorted(wrapped) == sorted(tracer.installed)
    for binding, owner, leaf, fn in originals:
        assert getattr(owner, leaf) is fn, binding
