"""The benchmark's workloads still run against today's f2lab.

`perfbench/workloads.py` calls f2lab by module attribute and checks each
result against a reference of its own, so a change to a name, a return
type or a field it reads makes the benchmark's run fail.  This runs the
cheap operations of each workload with their checks.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_workloads_build_run_and_check(monkeypatch):
    # every op of `sample` and `exhaustive`, and of `exact` the k = 20
    # bias and the code certificate; `verify-full` is only built, since
    # the acceptance tests run the full profile
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import WORKLOADS

    built = {name: build(0) for name, build in WORKLOADS.items()}
    assert sorted(built) == ["exact", "exhaustive", "sample", "verify-full"]
    ops = built["sample"].ops + built["exhaustive"].ops
    ops += [op for op in built["exact"].ops
            if op.name in ("bias_exact trace k=20", "code_certificate d=3 k=20 t=28")]
    assert len(ops) == 3 + 11 + 2
    for op in ops:
        result = op.run()
        assert op.check(result) is None, op.name
        if op.name.startswith("corr_class_max"):
            # from d = 2 on the affine maximum is the bias, at the zero polynomial
            assert result[1].monomials == (), result
