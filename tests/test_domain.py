"""Indicator algebra: the membership table, delta, typology, exclusions."""

import numpy as np
import pytest

from hiddenpop.domain import (
    BackgroundKind,
    KIND_LABELS,
    MEMBERSHIP,
    PA_UNOBSERVED,
    MigrantBackground,
    admissible_triples,
    compute_delta_type,
    excluded_triples,
)
from hiddenpop.errors import ExcludedCombination

EXPECTED = {
    (1, 1, 1): (0, 0),
    (1, 1, 0): (1, 1),
    (1, 0, 0): (1, 2),
    (0, 1, 0): (1, 3),
    (0, 0, 0): (1, 4),
    (0, 1, 1): (0, 0),
}


def test_membership_table_pinned():
    # [bp][cit][pa = 0, 1, unobserved] -> (delta, kind); -1 where no background follows
    assert MEMBERSHIP.dtype == np.int8
    assert MEMBERSHIP.tolist() == [
        [[[1, 4], [-1, -1], [1, 4]], [[1, 3], [0, 0], [1, 3]]],
        [[[1, 2], [-1, -1], [1, 2]], [[1, 1], [0, 0], [-1, -1]]],
    ]


def test_table_mapping_exact():
    for triple, (delta, kind) in EXPECTED.items():
        bg = compute_delta_type(*triple)
        assert bg.delta == delta
        assert bg.kind == BackgroundKind(kind)


def test_delta_matches_absolute_value_formula_outside_exception():
    for bp, cit, pa in EXPECTED:
        if (bp, cit, pa) == (0, 1, 1):
            continue
        assert compute_delta_type(bp, cit, pa).delta == abs(bp * cit * pa - 1)


def test_born_abroad_to_italian_parents_is_not_a_member():
    assert compute_delta_type(0, 1, 1).delta == 0


def test_excluded_combinations_raise():
    for triple in [(0, 0, 1), (1, 0, 1)]:
        with pytest.raises(ExcludedCombination, match="cannot occur under Jus Sanguinis"):
            compute_delta_type(*triple)


def test_enumeration_helpers():
    assert set(admissible_triples()) == set(EXPECTED)
    assert excluded_triples() == [(0, 0, 1), (1, 0, 1)]
    assert len(admissible_triples()) + len(excluded_triples()) == 8


def test_non_binary_inputs_rejected():
    with pytest.raises(ValueError, match="bp must be 0 or 1, got 2"):
        compute_delta_type(2, 0, 0)
    with pytest.raises(ValueError, match="cit must be 0 or 1, got 'x'"):
        compute_delta_type(1, "x", 0)
    with pytest.raises(ValueError, match="pa must be 0 or 1, got None"):
        compute_delta_type(1, 1, None)


def test_background_consistency_enforced():
    with pytest.raises(ValueError):
        MigrantBackground(delta=0, kind=BackgroundKind.FOREIGN)
    with pytest.raises(ValueError):
        MigrantBackground(delta=1, kind=BackgroundKind.NO_BACKGROUND)


def test_resolve_with_observed_pa_passes_through():
    for (bp, cit, pa), (delta, kind) in EXPECTED.items():
        assert MEMBERSHIP[bp, cit, pa].tolist() == [delta, kind]
    for bp, cit, pa in excluded_triples():
        assert MEMBERSHIP[bp, cit, pa].tolist() == [-1, -1]


def test_resolve_unobserved_pa():
    # only the double-native stratum genuinely needs pa
    assert MEMBERSHIP[1, 1, PA_UNOBSERVED].tolist() == [-1, -1]
    # everywhere else pa=0 is the forced (or adopted) completion
    for (bp, cit), kind in [((1, 0), 2), ((0, 1), 3), ((0, 0), 4)]:
        assert MEMBERSHIP[bp, cit, PA_UNOBSERVED].tolist() == [1, kind]
        assert MEMBERSHIP[bp, cit, PA_UNOBSERVED].tolist() == MEMBERSHIP[bp, cit, 0].tolist()


def test_labels_cover_all_kinds():
    assert set(KIND_LABELS) == set(BackgroundKind)
