"""The result records share one base, ``complexes._Record``, a tuple with
the semantics of an immutable record class: equality only within a class,
the tuple's hash, no assignment, no ordering, and the ``Name(field=value)``
repr.  Each repr is pinned to the text the records printed before they
became tuples, since test failure messages and reports print them."""

import copy
from types import MappingProxyType

import pytest

from scx import analysis
from scx.analysis import AnalysisReport, CorpusRow, CorpusSummary, PropertyCheckResult, analyze
from scx.banner import BannerClass, BannerNumber, BannerWitness, TildeCliques
from scx.generators import GeneratorSpec, simplex_boundary
from scx.graphs import ConnectivityResult, CutSet, PathFamily
from scx.manifold import FacetGraph, ManifoldClass, NormalityResult, ShellingOrder

ROW = CorpusRow("cycle-4", "T1.1", "fail", "kappa 1 < 2", {"kappa": 1})
CUT = CutSet(("c", "d"), ("a", "b"))
WITNESS = BannerWitness("strongly_banner", "non_spanning_clique", ("a", "c"))

# one sample of each of the 16 record classes, with its pinned repr
SAMPLES = [
    (
        analyze(simplex_boundary(2), name="triangle"),
        "AnalysisReport(name='triangle', dim=1, f_vector=(1, 3, 3), pseudomanifold='closed', "
        "strongly_connected=True, normal=True, homology_manifold=True, homology_sphere=True, "
        "betti=(0, 1), flag=False, strongly_banner=False, banner=False, "
        "banner_witness={'level': 'banner', 'kind': 'simplex_boundary', 'vertices': ['v0', 'v1', 'v2']}, "
        "banner_number=0, banner_number_witness={'passed_faces': 1, 'failing_face': None}, "
        "connectivity=2, connectivity_certificate={'complete': True}, bound=2, "
        "bound_checked=True, bound_satisfied=True)",
    ),
    (
        PropertyCheckResult("L2.1", "skip", "not a closed pseudomanifold"),
        "PropertyCheckResult(property_id='L2.1', verdict='skip', "
        "detail='not a closed pseudomanifold', payload=None)",
    ),
    (
        ROW,
        "CorpusRow(name='cycle-4', property_id='T1.1', verdict='fail', "
        "detail='kappa 1 < 2', payload={'kappa': 1})",
    ),
    (
        CorpusSummary((ROW,), ("x L2.1: NotPure: no",)),
        "CorpusSummary(rows=(CorpusRow(name='cycle-4', property_id='T1.1', verdict='fail', "
        "detail='kappa 1 < 2', payload={'kappa': 1}),), errors=('x L2.1: NotPure: no',))",
    ),
    (
        BannerWitness("banner", "simplex_boundary", ("a", "b", "c")),
        "BannerWitness(level='banner', kind='simplex_boundary', vertices=('a', 'b', 'c'))",
    ),
    (
        BannerClass(False, False, True, WITNESS),
        "BannerClass(flag=False, strongly_banner=False, banner=True, "
        "witness=BannerWitness(level='strongly_banner', kind='non_spanning_clique', "
        "vertices=('a', 'c')))",
    ),
    (BannerNumber(1, 4, None), "BannerNumber(value=1, passed_faces=4, failing_face=None)"),
    (
        TildeCliques("z", (("a", "b"),), (("b", "z"),), ()),
        "TildeCliques(apex='z', plain=(('a', 'b'),), from_boundary=(('b', 'z'),), stranded=())",
    ),
    (
        GeneratorSpec("cycle", (4,), True, "square"),
        "GeneratorSpec(name='cycle', params=(4,), closed=True, notes='square')",
    ),
    (CUT, "CutSet(vertices=('c', 'd'), pair=('a', 'b'))"),
    (
        ConnectivityResult(2, False, CUT),
        "ConnectivityResult(value=2, complete=False, "
        "cut=CutSet(vertices=('c', 'd'), pair=('a', 'b')))",
    ),
    (
        PathFamily(("a", "b"), (("a", "c", "b"), ("a", "d", "b"))),
        "PathFamily(endpoints=('a', 'b'), paths=(('a', 'c', 'b'), ('a', 'd', 'b')))",
    ),
    (
        FacetGraph((("a", "b"), ("b", "c")), ((0, 1),)),
        "FacetGraph(facets=(('a', 'b'), ('b', 'c')), edges=((0, 1),))",
    ),
    (NormalityResult(False, ("a",)), "NormalityResult(normal=False, witness=('a',))"),
    (
        ManifoldClass("closed", True, True, True, True, MappingProxyType({})),
        "ManifoldClass(pseudomanifold='closed', strongly_connected=True, normal=True, "
        "homology_manifold=True, homology_sphere=True, witnesses=mappingproxy({}))",
    ),
    (ShellingOrder((("a", "b"), ("b", "c"))), "ShellingOrder(facets=(('a', 'b'), ('b', 'c')))"),
]
IDS = [type(record).__name__ for record, _ in SAMPLES]


def _fields(record) -> tuple:
    return tuple(getattr(record, f) for f in type(record)._fields)


def test_every_record_class_has_a_sample():
    assert len(set(IDS)) == len(IDS) == 16


@pytest.mark.parametrize("record, text", SAMPLES, ids=IDS)
def test_repr_is_the_pinned_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", SAMPLES, ids=IDS)
def test_equal_only_to_a_record_of_its_class(record, text):
    plain = _fields(record)
    assert record != plain and plain != record
    assert not record == plain and not plain == record
    twin = type(record)(*plain)
    assert twin == record and not twin != record
    assert copy.copy(record) == record  # copy rebuilds it from its fields


def test_records_of_two_classes_with_equal_fields_differ():
    x, y = ("a", "b"), (("a", "b"),)
    assert CutSet(x, y) != PathFamily(x, y) and not CutSet(x, y) == PathFamily(x, y)
    assert PathFamily(x, y) != CutSet(x, y)


@pytest.mark.parametrize("record, text", SAMPLES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(record, text):
    plain = _fields(record)
    try:
        expected = hash(plain)
    except TypeError:  # a dict or mapping field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("record, text", SAMPLES, ids=IDS)
def test_frozen_and_unordered(record, text):
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert not hasattr(record, "__dict__")
    for compare in (
        lambda a, b: a < b,
        lambda a, b: a <= b,
        lambda a, b: a > b,
        lambda a, b: a >= b,
    ):
        with pytest.raises(TypeError):
            compare(record, record)
        with pytest.raises(TypeError):
            compare(record, _fields(record))
        with pytest.raises(TypeError):
            compare(_fields(record), record)


@pytest.mark.parametrize("record, text", SAMPLES, ids=IDS)
def test_missing_field_and_unknown_keyword_are_rejected(record, text):
    cls = type(record)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*_fields(record), bogus=1)


def test_defaults():
    assert PropertyCheckResult("T1.1", "pass", "ok").payload is None
    assert CorpusRow("x", "T1.1", "error", "boom").payload is None
    spec = GeneratorSpec("x")
    assert (spec.params, spec.closed, spec.notes) == ((), False, "")
    assert GeneratorSpec(name="x", notes="n") == GeneratorSpec("x", (), False, "n")


def test_path_family_length_counts_paths():
    family = PathFamily(("a", "b"), (("a", "c", "b"), ("a", "d", "b"), ("a", "b")))
    assert len(family) == 3
    assert not PathFamily(("a", "b"), ())


def test_report_keys_and_json_types_are_read_off_the_report_fields():
    assert analysis._REPORT_KEYS == [
        "schema", "name", "dim", "f_vector", "pseudomanifold", "strongly_connected",
        "normal", "homology_manifold", "homology_sphere", "betti", "flag",
        "strongly_banner", "banner", "banner_witness", "banner_number",
        "banner_number_witness", "connectivity", "connectivity_certificate", "bound",
        "bound_checked", "bound_satisfied",
    ]
    none = type(None)
    assert analysis._REPORT_TYPES == {
        "name": (str,), "dim": (int,), "f_vector": (list,), "pseudomanifold": (str,),
        "strongly_connected": (bool,), "normal": (bool, none),
        "homology_manifold": (bool,), "homology_sphere": (bool,), "betti": (list,),
        "flag": (bool,), "strongly_banner": (bool,), "banner": (bool,),
        "banner_witness": (dict, none), "banner_number": (int, none),
        "banner_number_witness": (dict,), "connectivity": (int,),
        "connectivity_certificate": (dict, none), "bound": (int, none),
        "bound_checked": (bool,), "bound_satisfied": (bool, none),
    }
    assert AnalysisReport._fields == tuple(analysis._REPORT_KEYS[1:])
