import pytest

from regquot.clifford import homology_presentation
from regquot.conormal import characteristic_form_diagonal
from regquot.derivations import cohomology_presentation
from regquot.errors import SemanticError, WindowTooSmall
from regquot.morava import build_scenario, minimum_window


def test_odd_p_rank_one():
    sc = build_scenario(3, 1)
    assert sc.window == 6
    assert sc.spec.is_regular
    pres, _ = homology_presentation(sc.spec)
    assert pres.kind == "exterior"
    assert pres.display == "Lambda(a0)"
    assert pres.generators == (("a0", 1),)


def test_odd_p_rank_two_degrees():
    sc = build_scenario(3, 2)
    pres, _ = homology_presentation(sc.spec)
    assert pres.kind == "exterior"
    assert pres.generators == (("a0", 1), ("a1", 5))


def test_p5_rank_two_degrees():
    sc = build_scenario(5, 2)
    pres, _ = homology_presentation(sc.spec)
    assert pres.kind == "exterior"
    assert pres.generators == (("a0", 1), ("a1", 9))
    assert pres.display == "Lambda(a0, a1)"


def test_p2_height_one_twisted_square():
    sc = build_scenario(2, 1)
    pres, cl = homology_presentation(sc.spec)
    assert pres.kind == "clifford"
    assert pres.display == "T(a0)/(a0^2 - v1*1)"
    a0 = cl.generator(0)
    assert a0 * a0 == cl.scalar(sc.ring.var("v1"))


def test_p2_height_two_shape():
    sc = build_scenario(2, 2)
    pres, cl = homology_presentation(sc.spec)
    assert pres.display == "Lambda(a0) (x) T(a1)/(a1^2 - v2*1)"
    a0, a1 = cl.generator(0), cl.generator(1)
    assert (a0 * a0).is_zero()
    assert a1 * a1 == cl.scalar(sc.ring.var("v2"))


def test_p2_height_three_shape():
    sc = build_scenario(2, 3)
    pres, cl = homology_presentation(sc.spec)
    assert pres.display == "Lambda(a0, a1) (x) T(a2)/(a2^2 - v3*1)"
    a2 = cl.generator(2)
    assert a2 * a2 == cl.scalar(sc.ring.var("v3"))
    for i in range(2):
        gi = cl.generator(i)
        assert (gi * gi).is_zero()


def test_form_single_entry_at_p2():
    sc = build_scenario(2, 2)
    form = characteristic_form_diagonal(sc.spec)
    assert form.entry(1, 1) == sc.ring.var("v2")
    assert form.entry(0, 0).is_zero()
    assert form.entry(0, 1).is_zero()
    assert form.is_diagonal()


def test_form_vanishes_at_odd_p():
    sc = build_scenario(3, 2)
    assert characteristic_form_diagonal(sc.spec).is_zero()


def test_cohomology_height_one():
    sc = build_scenario(2, 1)
    pres = cohomology_presentation(sc.spec)
    assert pres.display == "Lambda(Q0)"
    assert pres.generators == (("Q0", -1),)


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        build_scenario(2, 2, window=6)
    assert minimum_window(2, 2) == 8


def test_bad_parameters():
    with pytest.raises(SemanticError):
        build_scenario(4, 1)
    with pytest.raises(SemanticError):
        build_scenario(2, 0)


def test_obstruction_degree_arithmetic():
    for n in (1, 2, 3):
        sc = build_scenario(2, n)
        # |v_i| = 2(2^i - 1), so the token's obstruction v_n has degree
        # 2|v_{n-1}| + 2, which ProductToken checks
        assert [g.degree for g in sc.ring.generators] == [2 * (2**i - 1) for i in range(1, n + 1)]
        assert sc.spec.products[-1].obstruction == sc.ring.var("v%d" % n)
        assert sc.spec.is_regular
