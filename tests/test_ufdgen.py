from fractions import Fraction as F

import pytest

from polysing.divclass import class_group, factoriality_det
from polysing.errors import ConstructionFailed, DegenerateInput
from polysing.pdiv import Point, is_proper, support
from polysing.ufdgen import (
    admissible_data,
    classify_isolated_factorial,
    construct_divisor,
    default_points,
    hilbert_compare,
    hilbert_compare_presentation,
    presentation,
    _normalized_coordinates,
)


def data_of(*mus):
    return admissible_data(list(zip(default_points(len(mus)), mus)))


def verts_by_point(d):
    return {str(p): sorted(v[0] for v in poly.vertices) for p, poly in support(d)}


def test_admissibility_validation():
    with pytest.raises(DegenerateInput):
        data_of((2, 4), (6,))  # gcds 2 and 6 share a factor
    with pytest.raises(DegenerateInput):
        admissible_data([(Point.coord(0), (2,)), (Point.coord(0), (3,))])
    with pytest.raises(DegenerateInput):
        data_of((0,))


def test_construct_divisor_is_built_once_per_datum():
    data = data_of((1, 1), (2,), (3,))
    d = construct_divisor(data)
    assert construct_divisor(data) is d
    # the memo lives on the datum: an equal datum builds its own divisor
    again = construct_divisor(data_of((1, 1), (2,), (3,)))
    assert again == d and again is not d


def test_construct_e8_family():
    d = construct_divisor(data_of((2,), (3,), (5,)))
    assert is_proper(d).status == "proper"
    f = factoriality_det(d)
    assert abs(f.det) == 1
    assert class_group(d).torsion == ()
    # vertices c_i / mu_i with sum of complementary products one
    vals = verts_by_point(d)
    c = [vals["inf"][0] * 2, vals["0"][0] * 3, vals["1"][0] * 5]
    assert all(x.denominator == 1 for x in c)
    assert c[0] * 15 + c[1] * 10 + c[2] * 6 == 1


def test_construct_polynomial_case():
    d = construct_divisor(data_of((1, 1), (2,)))
    assert abs(factoriality_det(d).det) == 1
    assert class_group(d).torsion == () and class_group(d).free_rank == 0


def test_construct_23_5_exact_data():
    d = construct_divisor(data_of((2, 3), (5,)))
    sup = {str(p): poly for p, poly in support(d)}
    assert sorted(sup["inf"].vertices) == [(F(0), F(-1, 2)), (F(0), F(-1, 3))]
    assert sup["0"].vertices == ((F(1, 5), F(0)),)
    assert set(d.tail.generators) == {(2, -5), (3, -5)}
    assert abs(factoriality_det(d).det) == 1


def test_construct_deterministic():
    a = construct_divisor(data_of((4, 6), (5,), (7,)))
    b = construct_divisor(data_of((4, 6), (5,), (7,)))
    assert a == b


def test_presentation_e8():
    data = data_of((2,), (3,), (5,))
    pres = presentation(data)
    assert pres.variables == ("T1", "T2", "T3")
    assert pres.relations == ("T3^5 + T2^3 - T1^2",)
    assert pres.degrees == ((15,), (10,), (6,))
    assert pres.dimension == 2


def test_presentation_free_case():
    pres = presentation(data_of((1, 1), (2,)))
    assert pres.relations == ()
    assert pres.variables == ("T11", "T12", "T2")
    assert pres.dimension == 3


def test_presentation_fourfold():
    pres = presentation(data_of((1, 1), (1, 1), (2,)))
    assert pres.relations == ("T3^2 + T21*T22 - T11*T12",)
    assert pres.dimension == 4


def test_presentation_moebius_normalization():
    # points not in standard position get mapped to (inf, 0, 1, ...)
    data = admissible_data(
        [(Point.coord(2), (2,)), (Point.coord(3), (3,)), (Point.infinity(), (5,))]
    )
    pres = presentation(data)
    assert pres.relations == ("T3^5 + T2^3 - T1^2",)
    data4 = admissible_data(
        [
            (Point.infinity(), (2,)),
            (Point.coord(0), (3,)),
            (Point.coord(1), (5,)),
            (Point.coord(2), (7,)),
        ]
    )
    pres4 = presentation(data4)
    assert len(pres4.relations) == 2
    assert pres4.relations[0] == "T3^5 + T2^3 - T1^2"
    assert pres4.relations[1] == "T4^7 + T2^3 - 2*T1^2"


@pytest.mark.parametrize(
    "values, expected",
    [
        (["inf", 1, 3, 2], [1, F(1, 2)]),
        ([1, "inf", 3, 2], [1, F(2)]),
        ([0, 2, "inf", 3], [1, F(1, 3)]),
        ([0, 1, 3, "inf", 2], [1, F(3, 2), F(3, 4)]),
        ([0, 1, 2, 3], [1, F(4, 3)]),
        ([0, 1], []),
    ],
    ids=["inf-first", "inf-second", "inf-third", "inf-later", "no-inf", "two-points"],
)
def test_normalized_coordinates_cross_ratio(values, expected):
    """The Moebius map sending the first three points to inf, 0, 1, with
    infinity at every position; values computed by hand from
    (t - z2)(z3 - z1) / ((t - z1)(z3 - z2))."""
    pts = [Point.infinity() if v == "inf" else Point.coord(v) for v in values]
    assert _normalized_coordinates(pts) == expected


def test_construct_divisor_verifies_the_determinant(monkeypatch):
    """The construction is checked, not trusted: a determinant other than
    +-1 is an error."""
    from polysing import ufdgen
    from polysing.divclass import Factoriality

    monkeypatch.setattr(ufdgen, "factoriality_det", lambda d: Factoriality(False, 2, (3, 3)))
    with pytest.raises(ConstructionFailed):
        construct_divisor(data_of((2,), (3,), (5,)))


def test_hilbert_e8_spot_values():
    data = data_of((2,), (3,), (5,))
    d = construct_divisor(data)
    pres = presentation(data, d)
    cmp = hilbert_compare_presentation(d, pres, (1,), 30)
    assert cmp.match
    dims = cmp.dims
    assert dims[0] == 1 and dims[6] == 1 and dims[10] == 1 and dims[12] == 1
    assert dims[15] == 1 and dims[16] == 1
    assert dims[1] == dims[2] == dims[3] == dims[4] == dims[5] == 0
    assert dims[30] == 2  # T1^2, T2^3 (T3^5 reduces away)


def test_hilbert_ex1_against_hypersurface(ex1):
    # generators have degrees (0,1), (2,0), (3,0), (6,-1); the single relation
    # has lead x3^2; interior weight (1, 3) makes all weights positive
    cmp = hilbert_compare(
        ex1,
        variables=((0, 1), (2, 0), (3, 0), (6, -1)),
        leads=((0, 0, 2, 0),),
        weight=(1, 3),
        d_max=12,
    )
    assert cmp.match


def test_hilbert_free_case():
    data = data_of((1, 1), (2,))
    d = construct_divisor(data)
    pres = presentation(data, d)
    cmp = hilbert_compare_presentation(d, pres, (2, 1), 12)
    assert cmp.match


def test_hilbert_rejects_boundary_weight():
    data = data_of((2, 3), (5,))
    d = construct_divisor(data)
    pres = presentation(data, d)
    with pytest.raises(DegenerateInput):
        hilbert_compare_presentation(d, pres, (2, -5), 10)


def test_classify_families():
    assert classify_isolated_factorial(data_of((1, 1), (2,), (3,))).label == "cA"
    assert classify_isolated_factorial(data_of((1, 1), (2,), (3,))).params == (1, 3)
    got = classify_isolated_factorial(data_of((1, 1), (1, 1), (3,)))
    assert (got.label, got.params) == ("fourfold_A", (2,))
    assert classify_isolated_factorial(data_of((1, 1), (1, 1), (1, 1))).label == "fivefold_A1"
    assert classify_isolated_factorial(data_of((2, 2), (3,), (5,))).label == "not_isolated"
    assert classify_isolated_factorial(data_of((1, 1), (2,))).label == "smooth"
    assert classify_isolated_factorial(data_of((2,), (3,))).label == "not_hypersurface_dim"


def test_classify_matches_isolated_check():
    from polysing.singcheck import check_isolated

    for mus in [((1, 1), (3,), (4,)), ((1, 1, 1), (2,), (5,)), ((3, 2), (5,), (7,))]:
        data = data_of(*mus)
        fam = classify_isolated_factorial(data)
        iso = check_isolated(construct_divisor(data))
        assert fam.isolated == (iso.status == "yes")


def test_presentation_counts():
    shapes = [((2,), (3,), (5,)), ((1, 1), (2,)), ((1, 1), (1, 1), (2,)),
              ((2,), (3,), (5,), (7,)), ((2, 3), (5,))]
    for mus in shapes:
        data = data_of(*mus)
        pres = presentation(data)
        assert pres.dimension == 2 + sum(len(t) - 1 for t in mus)
        assert len(pres.relations) == max(len(mus) - 2, 0)
        assert len(pres.variables) == sum(len(t) for t in mus)
        assert len(pres.degrees) == len(pres.variables)
