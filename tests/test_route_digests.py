"""Route digests: seeded input families of the L2 routes and the SHA-256 of
their outputs in canonical JSON, pinned in tests/data/route_digests.json.

A change that moves any output of a listed route moves its digest.  When a
value moves on purpose, regenerate the file with

    PYTHONPATH=src:tests python tests/test_route_digests.py

and name the route and the reason with the change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from f2lab.bias import bias_mc, corr_class_max, corr_exact
from f2lab.errors import CapacityError
from f2lab.harness import _lifted_form, _lifted_monomials
from f2lab.prng import Prng
from f2lab.tensors import DenseTensor, Polynomial, explicit_form_tensor, random_tensor
from oracles import below

DIGESTS = Path(__file__).parent / "data" / "route_digests.json"


def _dyadic(value):
    return [value.numerator, value.exponent]


def _random_poly(prng, n, count):
    return Polynomial.reduce(n, [sorted({below(prng, n) for _ in range(below(prng, 6))})
                                 for _ in range(count)])


def _corr_exact_cases():
    """kd <= 20 at d = 1..6 with 0-40 random monomials, the zero tensor,
    explicit forms with lifted forms, d = 1 at k = 24, and dense forms
    with many monomials at d = 6, 8 and 13."""
    prng = Prng(4001)
    for d in range(1, 7):
        for k in range(1, 20 // d + 1):
            n = k * d
            for count in (0, 1, 2, 3, 5, 8, 12, 20, 40):
                yield random_tensor(d, k, prng.u64()), _random_poly(prng, n, count)
            yield random_tensor(d, k, prng.u64()), Polynomial(n, ((),))
            yield DenseTensor(d, k, 0), _random_poly(prng, n, 1 + below(prng, 40))
    for d, k in [(3, 2), (4, 2), (3, 3), (2, 6), (3, 8), (2, 12), (2, 13)]:
        g = Prng(4100 + 10 * d + k)
        for _ in range(3 if k * d < 20 else 1):
            yield explicit_form_tensor(d, k), _lifted_form(d, k, g, _lifted_monomials(d, k))
    yield random_tensor(1, 24, prng.u64()), _random_poly(prng, 24, 30)
    for d, k in [(6, 4), (8, 3), (13, 2)]:
        yield random_tensor(d, k, prng.u64()), _random_poly(prng, k * d, 20)


def _corr_class_max_cases():
    """Degrees -1..1 at n = kd <= 12, and degree 2 at n <= 5."""
    prng = Prng(4002)
    for d in range(1, 5):
        for k in range(1, 12 // d + 1):
            for degree in (-1, 0, 1) + ((2,) if k * d <= 5 else ()):
                for t in (random_tensor(d, k, prng.u64()), DenseTensor(d, k, 0)):
                    yield t, degree


def _bias_mc_cases():
    """Small shapes, block edges of 2^16 samples, and (2, 70), whose
    block shrinks below 2^16 samples."""
    prng = Prng(4003)
    for d, k, samples in [(1, 1, 1), (1, 3, 10), (2, 2, 64), (2, 3, 999), (3, 2, 65_536),
                          (3, 3, 65_537), (4, 2, 5_000), (3, 4, 20_000), (5, 2, 3_001),
                          (2, 8, 200_000), (2, 70, 60_000)]:
        yield random_tensor(d, k, prng.u64()), samples, 0.95, prng.u64() >> 40
    yield DenseTensor(3, 2, 0), 300, 0.9, 7


def _outputs(call, cases):
    out = []
    for case in cases:
        try:
            out.append(call(*case))
        except CapacityError as exc:
            out.append(["refused", exc.required, exc.budget])
    return out


def _corr_exact_outputs():
    return _outputs(lambda t, p: _dyadic(corr_exact(t, p)), _corr_exact_cases())


def _corr_class_max_outputs():
    def call(t, degree):
        value, witness = corr_class_max(t, degree)
        return [_dyadic(value), [list(m) for m in witness.monomials]]
    return _outputs(call, _corr_class_max_cases())


def _bias_mc_outputs():
    def call(t, samples, confidence, seed):
        est = bias_mc(t, samples, confidence, seed)
        return [est.point, est.ci_halfwidth, est.samples, est.confidence, est.seed]
    return _outputs(call, _bias_mc_cases())


ROUTES = {
    "corr_exact": _corr_exact_outputs,
    "corr_class_max": _corr_class_max_outputs,
    "bias_mc": _bias_mc_outputs,
}


def _digest(outputs):
    text = json.dumps(outputs, separators=(",", ":"), sort_keys=True)
    return {"cases": len(outputs), "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_matches_its_digest(route, monkeypatch):
    monkeypatch.delenv("F2LAB_BUDGET_BYTES", raising=False)
    assert _digest(ROUTES[route]()) == json.loads(DIGESTS.read_text())[route]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({r: _digest(f()) for r, f in sorted(ROUTES.items())},
                                  indent=2, sort_keys=True) + "\n")
