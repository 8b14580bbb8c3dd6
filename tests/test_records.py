"""The package's records: fields that cannot be assigned, value equality
where a record keys a cache, and the constructors' validation messages."""

import numpy as np
import pytest

import twistrank.curve as curve_mod
from twistrank.arith import ParityDecomposition, PrimeTable, sieve_primes
from twistrank.curve import CurveModel, ap_array, twist_columns
from twistrank.explicit_formula import _Group, _PrimePlan, evaluate_reports
from twistrank.family_moments import MomentConfig, MomentRow
from twistrank.kernel import SmoothWeight, TriangleKernel


def _records(cm_curve, primes_1e3):
    twists = twist_columns(cm_curve, range(1, 30))
    table = evaluate_reports(twists, 5.0, primes_1e3)
    config = MomentConfig(curve=cm_curve, k=1, x=100.0, weight=SmoothWeight(0.5, 1.0), T=100.0)
    return {
        "PrimeTable": (primes_1e3, "limit"),
        "ParityDecomposition": (ParityDecomposition(45, 3, 5), "pi2"),
        "CurveModel": (cm_curve, "conductor"),
        "Twists": (twists, "D"),
        "_Group": (_Group(0, np.zeros((1, 1)), np.zeros((1, 1))), "emin"),
        "_PrimePlan": (_PrimePlan(np.zeros(0), ()), "groups"),
        "ExplicitFormulaTable": (table, "total_S"),
        "MomentConfig": (config, "T"),
        "MomentRow": (MomentRow(1, 100.0, 100.0, "any", 1.0, 1, 1.0, 1.5), "empirical_moment"),
        "TriangleKernel": (TriangleKernel(5.0), "lam"),
        "SmoothWeight": (SmoothWeight(0.5, 1.0), "shape"),
    }


RECORDS = [
    "PrimeTable", "ParityDecomposition", "CurveModel", "Twists", "_Group", "_PrimePlan",
    "ExplicitFormulaTable", "MomentConfig", "MomentRow", "TriangleKernel", "SmoothWeight",
]  # fmt: skip


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(cm_curve, primes_1e3, name):
    record, field = _records(cm_curve, primes_1e3)[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.no_such_field = 0


def test_prime_table_array_is_read_only():
    table = PrimeTable(10, np.array([2, 3, 5, 7]))
    assert not table.primes.flags.writeable
    assert not sieve_primes(100).primes.flags.writeable


def test_equal_curves_share_one_ap_table(monkeypatch, primes_1e3):
    monkeypatch.setattr(curve_mod, "_AP_CACHE", {})
    built = []
    ap_values = curve_mod._ap_values
    monkeypatch.setattr(curve_mod, "_ap_values", lambda curve, ps: built.append(curve) or ap_values(curve, ps))
    fields = dict(A=-3, B=12, conductor=105, root_number=1, label="bad3", a2=1, a3=-1)
    first, second = CurveModel(**fields), CurveModel(**fields)
    assert first is not second and first == second and hash(first) == hash(second)
    assert ap_array(first, primes_1e3, 1e3).tolist() == ap_array(second, primes_1e3, 1e3).tolist()
    assert built == [first] and len(curve_mod._AP_CACHE) == 1
    # a relabelled curve is another key in the process, but the same model:
    # it reads the table the first one left on disk, and builds none
    other = first._replace(label="other")
    assert ap_array(other, primes_1e3, 1e3).tolist() == ap_array(first, primes_1e3, 1e3).tolist()
    assert built == [first] and len(curve_mod._AP_CACHE) == 2


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: CurveModel(A=0, B=0, conductor=1, root_number=1), "singular model A=0, B=0"),
        (lambda: CurveModel(A=1, B=0, conductor=0, root_number=1), "conductor must be >= 1, got 0"),
        (lambda: CurveModel(A=1, B=0, conductor=64, root_number=2), "root number must be +-1, got 2"),
        (lambda: TriangleKernel(0.5), "kernel scale must be >= 1, got 0.5"),
        (
            lambda: SmoothWeight(0.5, 0.25),
            "support must satisfy 0 < lo < hi <= 1 or -1 <= lo < hi < 0, got (0.5, 0.25)",
        ),
        (lambda: SmoothWeight(0.5, 1.0, shape="cubic"), "unknown weight shape 'cubic'"),
        (lambda: SmoothWeight(0.5, 1.0, l=-1), "l must be nonnegative"),
        (lambda: SmoothWeight(0.5, 1.0, x=1.0), "scale x must exceed 1"),
        (lambda: SmoothWeight(0.5, 1.0, X_k=0.0), "scale X_k must be positive"),
        (lambda: _config(k=0), "k must be a positive integer, got 0"),
        (lambda: _config(x=2.0), "x must exceed e, got 2.0"),
        (lambda: _config(sign="both"), "sign must be any/plus/minus, got 'both'"),
        (
            lambda: _config(sign="plus", coprime_to_2N=False),
            "sign filters need squarefree_only and coprime_to_2N (root numbers are defined only there)",
        ),
        (lambda: _config(T=0.5), "family scale T must be >= 1, got 0.5"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def _config(**changes):
    curve = CurveModel(A=-1, B=0, conductor=32, root_number=1, a2=0, a3=0)
    return MomentConfig(**{"curve": curve, "k": 1, "x": 100.0, "weight": SmoothWeight(0.5, 1.0), **changes})


def test_constructor_defaults():
    curve = CurveModel(1, 1, 1, 1)
    assert (curve.label, curve.a2, curve.a3) == ("", None, None)
    w = SmoothWeight(0.5, 1.0)
    assert (w.shape, w.l, w.x, w.X_k) == ("exp", 0, None, None)
    config = MomentConfig(curve=curve, k=1, x=100.0, weight=w)
    assert (config.squarefree_only, config.coprime_to_2N, config.sign) == (True, True, "any")
    assert config.T > 1.0
    assert MomentRow(1, 100.0, 100.0, "any", 2.0, 3, 3.0, 1.5).record() == {
        "k": 1, "x": 100.0, "T": 100.0, "filter_flags": "any", "weighted_count": 2.0,
        "family_size": 3, "empirical_moment": 3.0, "theoretical_bound": 1.5, "ratio": 2.0,
    }  # fmt: skip


@pytest.mark.parametrize(
    "record, changes, message",
    [
        (CurveModel(A=1, B=0, conductor=64, root_number=1), {"conductor": 0}, "conductor must be >= 1, got 0"),
        (TriangleKernel(2.0), {"lam": 0.5}, "kernel scale must be >= 1, got 0.5"),
        (SmoothWeight(0.5, 1.0), {"shape": "cubic"}, "unknown weight shape 'cubic'"),
        (_config(), {"T": 0.5}, "family scale T must be >= 1, got 0.5"),
    ],
    ids=["CurveModel", "TriangleKernel", "SmoothWeight", "MomentConfig"],
)
def test_replace_validates(record, changes, message):
    with pytest.raises(ValueError) as info:
        record._replace(**changes)
    assert str(info.value) == message
    assert record._replace() == record
