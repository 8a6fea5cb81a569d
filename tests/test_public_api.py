"""The public API: `gvcalc.__all__` and the signature of every public callable.

The table below is the contract.  A change that renames, removes or adds a
public name, or changes a parameter, default or annotation, fails here and
must update the table on purpose.  Error classes carry no signature of their
own (they take the arguments of Exception); they are listed with None and
must stay subclasses of GvError.
"""

from __future__ import annotations

import inspect

import gvcalc

SIGNATURES = {
    'Chart': "(variables: 'tuple[str, ...]', characteristic: 'int' = 0) -> None",
    'MultiPoly': "(chart: 'Chart', terms: 'dict') -> 'None'",
    'RatFn': "(num: 'MultiPoly', den: 'MultiPoly') -> 'None'",
    'as_ratfn': "(chart: 'Chart', value) -> 'RatFn'",
    'exact_div': "(a: 'MultiPoly', b: 'MultiPoly') -> 'MultiPoly'",
    'poly_gcd': "(a: 'MultiPoly', b: 'MultiPoly') -> 'MultiPoly'",
    'poly_str': "(f: 'MultiPoly') -> 'str'",
    'rf_normalize': "(num: 'MultiPoly', den: 'MultiPoly') -> 'tuple[MultiPoly, MultiPoly]'",
    'squarefree_decomposition': "(f: 'MultiPoly') -> 'list[tuple[MultiPoly, int]]'",
    'DiffForm': "(chart: 'Chart', degree: 'int', terms: 'dict') -> 'None'",
    'VectorField': "(chart: 'Chart', components: 'Sequence') -> 'None'",
    'wedge': "(a: 'DiffForm', b: 'DiffForm') -> 'DiffForm'",
    'wedge_all': "(forms: 'Sequence[DiffForm]') -> 'DiffForm'",
    'ext_d': "(a) -> 'DiffForm'",
    'd_of': "(f: 'RatFn') -> 'DiffForm'",
    'interior': "(x: 'VectorField', a: 'DiffForm') -> 'DiffForm'",
    'form_apply': "(a: 'DiffForm', x: 'VectorField') -> 'RatFn'",
    'lie_derivative': '(x: \'VectorField\', a) -> "\'DiffForm | RatFn\'"',
    'is_integrable': "(omega: 'DiffForm') -> 'bool'",
    'same_foliation': "(a: 'DiffForm', b: 'DiffForm') -> 'bool'",
    'pullback': "(phi: 'Sequence[RatFn]', a: 'DiffForm') -> 'DiffForm'",
    'form_str': "(a: 'DiffForm') -> 'str'",
    'FormalOmega': "(chart: 'Chart', coeffs: 'Sequence[DiffForm]') -> 'None'",
    'Substitution': "(chart: 'Chart', coeffs: 'Sequence') -> 'None'",
    'structure_defect': "(om: 'FormalOmega', k: 'int') -> 'DiffForm'",
    'structure_defects': "(om: 'FormalOmega') -> 'list[DiffForm]'",
    'substitute_series': "(om: 'FormalOmega', sub: 'Substitution', upto: 'int | None' = None) -> 'FormalOmega'",
    'Triple': "(w0: gvcalc.exterior.DiffForm, w1: gvcalc.exterior.DiffForm, w2: gvcalc.exterior.DiffForm, convention: str = 'full') -> None",
    'TripleReport': '(convention: str, defects: tuple[gvcalc.exterior.DiffForm, gvcalc.exterior.DiffForm, gvcalc.exterior.DiffForm]) -> None',
    'triple_verify': '(t: gvcalc.transverse.Triple) -> gvcalc.transverse.TripleReport',
    'classify_structure': '(w0: gvcalc.exterior.DiffForm, w1: Optional[gvcalc.exterior.DiffForm] = None, w2: Optional[gvcalc.exterior.DiffForm] = None) -> str',
    'triple_gauge': '(t: gvcalc.transverse.Triple, kind: str, fn) -> gvcalc.transverse.Triple',
    'triple_gauge_regular': '(t: gvcalc.transverse.Triple, f0, f1) -> gvcalc.transverse.Triple',
    'riccati_triple': "(alpha: gvcalc.exterior.DiffForm, beta: gvcalc.exterior.DiffForm, gamma: gvcalc.exterior.DiffForm, fiber: str = 'z') -> gvcalc.transverse.Triple",
    'suspension_form': '(t: gvcalc.transverse.Triple) -> gvcalc.zseries.FormalOmega',
    'GVSequence': "(forms: 'Sequence[DiffForm]', declared_length: 'Optional[int]' = None) -> 'None'",
    'DefectReport': "(orders: 'tuple[int, ...]', nonzero: 'tuple[tuple[int, DiffForm], ...]') -> None",
    'FlagReport': "(n: 'int', theta: 'DiffForm', theta_hats: 'tuple[DiffForm, ...]', closed_failures: 'tuple[int, ...]') -> None",
    'FiniteGVReport': "(order: 'int', wedge_failures: 'tuple[tuple[int, int], ...]', relation_failures: 'tuple[int, ...]') -> None",
    'AffineCertificate': "(omega: 'DiffForm', eta: 'DiffForm', branch: 'str') -> None",
    'ClosedKernelWitness': "(function: 'RatFn', branch: 'str') -> None",
    'Inconclusive': "(branch: 'str', detail: 'str' = '') -> None",
    'PullbackReport': "(chart: 'Chart', form: 'DiffForm', mapping: 'tuple[RatFn, RatFn]', cofactor: 'RatFn', ramification: 'int') -> None",
    'gv_from_field': "(w: 'DiffForm', X: 'VectorField', upto: 'int') -> 'GVSequence'",
    'gv_verify': "(s: 'GVSequence') -> 'DefectReport'",
    'gv_rescale': "(s: 'GVSequence', f) -> 'GVSequence'",
    'gv_shift': "(s: 'GVSequence', f, order: 'int' = 1) -> 'GVSequence'",
    'flag_forms': "(s: 'GVSequence') -> 'FlagReport'",
    'flag_decompose': "(s: 'GVSequence', flag: 'Optional[FlagReport]' = None) -> 'tuple[RatFn, ...]'",
    'gv_invariant': "(s: 'GVSequence') -> 'DiffForm'",
    'finite_gv_verify': "(s: 'GVSequence') -> 'FiniteGVReport'",
    'finite_gv_classify': "(s: 'GVSequence') -> 'Union[AffineCertificate, ClosedKernelWitness, Inconclusive]'",
    'finite_gv_pullback': "(s: 'GVSequence', witness, degree: 'int') -> 'PullbackReport'",
    'form_ratio': "(a: 'DiffForm', b: 'DiffForm') -> 'Optional[RatFn]'",
    'DualFrame': '(fields: tuple[gvcalc.exterior.VectorField, ...], basis_forms: tuple[gvcalc.exterior.DiffForm, ...]) -> None',
    'dual_frame': '(w: gvcalc.exterior.DiffForm, fs: Optional[Sequence] = None) -> gvcalc.charp.DualFrame',
    'vf_pth_power': '(x: gvcalc.exterior.VectorField, p: int) -> gvcalc.exterior.VectorField',
    'integrating_factor': '(w: gvcalc.exterior.DiffForm, fs: Optional[Sequence] = None) -> gvcalc.field.RatFn',
    'invariant_hypersurface_candidates': '(factor: gvcalc.field.RatFn, w: gvcalc.exterior.DiffForm) -> list[tuple[gvcalc.field.MultiPoly, bool]]',
    'batch_integrating_factors': "(p: int, count: int, seed: int, names: Sequence[str] = ('x', 'y'), degree: int = 2) -> list[dict]",
    'GvError': None,
    'ChartMismatch': None,
    'ZeroDenominator': None,
    'VanishingLeadCoefficient': None,
    'NotIntegrable': None,
    'NotNormalized': None,
    'ZeroFunction': None,
    'GaugeBreaksRelations': None,
    'DecompositionFails': None,
    'NotExpressible': None,
    'GcdDegenerate': None,
    'DegenerateFrame': None,
    'PClosedCase': None,
}


def test_all_lists_exactly_the_table_in_order():
    assert list(gvcalc.__all__) == list(SIGNATURES)


def test_every_public_signature_is_unchanged():
    for name, expected in SIGNATURES.items():
        obj = getattr(gvcalc, name)
        if expected is None:
            assert isinstance(obj, type) and issubclass(obj, gvcalc.GvError), name
        else:
            assert str(inspect.signature(obj)) == expected, name
