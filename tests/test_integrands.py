import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as si

from levynoise import integrands as ig
from oracles import is_time_only


def oracle(fn, a, b, points=()):
    inside = sorted({v for v in points if a < v < b})
    val, _ = si.quad(fn, a, b, epsabs=1e-13, limit=300, points=inside or None)
    return val


NODES = [
    ig.Const(2.5),
    ig.Poly((1.0, -0.5, 0.25)),
    ig.Exp(-0.7),
    ig.ExpAbs(-1.3),
    ig.Cos(2.0),
    ig.Sin(1.5),
    ig.Indicator(-0.4, 0.9),
    ig.AbsIndicator(0.2, 1.1),
    ig.AbsPow(1.5),
    ig.SignPow(2.0),
    # no antiderivative: Gauss-Legendre panels split at the kink and the edges
    ig.product_node(ig.ExpAbs(-2.0), ig.Cos(1.0)),
    ig.product_node(ig.AbsIndicator(0.2, 0.7), ig.Cos(1.0)),
]


class TestNodes:
    @pytest.mark.parametrize("node", NODES, ids=lambda n: n.kind)
    @pytest.mark.parametrize("a,b", [(-1.5, 2.0), (0.3, 1.7), (-2.0, -0.1)])
    def test_integral_matches_quadrature(self, node, a, b):
        want = oracle(lambda u: float(node(u)), a, b, ig.breakpoints(node))
        assert node.integral(a, b) == pytest.approx(want, rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("node,a,b,tol", [
        (ig.product_node(ig.ExpAbs(-2.0), ig.Cos(1.0), ig.Cos(1.0)), -0.5, 0.5, 1e-12),
        (ig.product_node(ig.ExpAbs(-2.0), ig.Cos(1.0), ig.Cos(1.0)), -20.0, 20.0, 1e-12),
        (ig.product_node(ig.AbsIndicator(0.2, 0.7), ig.Cos(1.0)), -1.0, 1.0, 1e-12),
        # algebraic convergence at the endpoint singularity of |u|^0.5 at 0
        (ig.product_node(ig.AbsPow(0.5), ig.Cos(1.0)), -1.0, 1.0, 1e-6),
    ])
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")  # roundoff
    def test_panels_split_at_breakpoints(self, node, a, b, tol):
        # a single panel over (a, b) was off by 1.7e-4, 0.22, 1.9e-2 and 1.2e-3
        want, _ = si.quad(lambda u: float(node(u)), a, b, epsabs=1e-14, epsrel=1e-14,
                          limit=400, points=sorted(v for v in ig.breakpoints(node) if a < v < b))
        assert abs(node.integral(a, b) - want) <= tol

    def test_abs_integral_splits_at_sign_changes(self):
        node = ig.product_node(ig.ExpAbs(-0.5), ig.Cos(2.0))
        kinks = [k * math.pi / 4.0 for k in (-3, -1, 1, 3)]
        want = oracle(lambda u: abs(float(node(u))), -3.0, 3.0, kinks + [0.0])
        assert node.abs_integral(-3.0, 3.0) == pytest.approx(want, rel=1e-12)
        assert ig.AbsPow(1.5).abs_integral(-1.0, 2.0) == ig.AbsPow(1.5).integral(-1.0, 2.0)

    def test_sign_changes(self):
        got = ig.sign_changes(np.cos, -5.0, 5.0)
        np.testing.assert_allclose(got, [-1.5 * math.pi, -0.5 * math.pi, 0.5 * math.pi,
                                         1.5 * math.pi], atol=1e-11)
        # a jump through 0 counts; zeros that keep the sign do not
        assert ig.sign_changes(np.sign, -1.0, 1.0) == pytest.approx([0.0], abs=1e-12)
        assert len(ig.sign_changes(lambda u: u * u, -1.0, 1.0)) == 0

    @pytest.mark.parametrize("node", NODES, ids=lambda n: n.kind)
    def test_antiderivative_consistent(self, node):
        F = node.antiderivative(np.array([0.0, 0.8, -0.6]))
        if F is None:
            return
        assert F[0] == pytest.approx(0.0, abs=1e-15)
        assert F[1] - F[2] == pytest.approx(node.integral(-0.6, 0.8), rel=1e-10, abs=1e-12)

    def test_product_clips_indicators(self):
        p = ig.product_node(ig.Const(2.0), ig.Indicator(0.0, 1.0), ig.Poly((0.0, 1.0)))
        # 2 * integral of u over (0,1] = 1
        assert p.integral(-5.0, 5.0) == pytest.approx(1.0, rel=1e-12)

    def test_product_flattening(self):
        p = ig.product_node(ig.Const(2.0), ig.product_node(ig.Const(3.0), ig.Exp(-1.0)))
        assert isinstance(p, ig.Product)
        consts = [f for f in p.factors if isinstance(f, ig.Const)]
        assert len(consts) == 1 and consts[0].value == 6.0

    def test_json_round_trip(self):
        texts = [
            {"kind": "const", "value": 2.5},
            {"kind": "poly", "coeffs": [1.0, -0.5, 0.25]},
            {"kind": "exp", "rate": -0.7},
            {"kind": "exp_abs", "rate": -1.3},
            {"kind": "cos", "freq": 2.0},
            {"kind": "sin", "freq": 1.5},
            {"kind": "indicator", "lo": -0.4, "hi": 0.9},
            {"kind": "abs_indicator", "lo": 0.2, "hi": 1.1},
            {"kind": "abs_pow", "power": 1.5},
            {"kind": "sign_pow", "power": 2.0},
            {"kind": "product", "factors": [{"kind": "const", "value": 2.0},
                                            {"kind": "cos", "freq": 1.0},
                                            {"kind": "exp", "rate": -0.5}]},
        ]
        nodes = [n for n in NODES if not isinstance(n, ig.Product)] + [
            ig.product_node(ig.Const(2.0), ig.Cos(1.0), ig.Exp(-0.5))]
        assert {d["kind"] for d in texts} == {n.kind for n in nodes} == {*ig._NODE_KINDS, "product"}
        u = np.linspace(-2, 2, 41)
        for d, node in zip(texts, nodes):
            back = ig.node_from_json(d)
            assert back == node
            np.testing.assert_array_equal(back(u), node(u))


def h_example():
    # H(s, x, z) = e^{-s} (1 + 0.5 x) z
    return ig.term(time=ig.Exp(-1.0), space=ig.Poly((1.0, 0.5)), jump=ig.SignPow(1.0))


class TestIntegrand:
    def test_evaluation_broadcasts(self):
        H = h_example()
        s = np.array([0.0, 1.0])
        x = np.array([[0.2], [-0.4]])
        z = np.array([2.0, -1.0])
        vals = H(s, x, z)
        expect = np.exp(-s) * (1 + 0.5 * x[:, 0]) * z
        np.testing.assert_allclose(vals, expect, rtol=1e-15)

    def test_sum_and_product(self):
        H = h_example()
        G = ig.term(time=ig.Const(2.0))
        both = H + G
        assert both(0.0, 0.0, 3.0) == pytest.approx(3.0 + 2.0)
        sq = H.squared()
        assert sq(0.5, 0.3, -2.0) == pytest.approx(H(0.5, 0.3, -2.0) ** 2, rel=1e-14)

    def test_scalar_multiplication(self):
        H = h_example()
        assert (3.0 * H)(0.1, 0.2, 0.5) == pytest.approx(3 * H(0.1, 0.2, 0.5))
        assert (H - H)(0.1, 0.2, 0.5) == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(-1, 1), st.floats(-0.5, 0.5), st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_product_is_pointwise(self, s, x, z):
        A = h_example()
        B = ig.term(time=ig.Cos(1.0), space=ig.ExpAbs(-0.5), jump=ig.AbsPow(2.0))
        assert (A * B)(s, x, z) == pytest.approx(A(s, x, z) * B(s, x, z),
                                                 rel=1e-12, abs=1e-12)

    def test_restrict_jump(self):
        H = h_example().with_jump(ig.AbsIndicator(0.0, 1.0))
        assert H(0.0, 0.0, 0.5) != 0.0
        assert H(0.0, 0.0, 1.5) == 0.0
        assert H(0.0, 0.0, -2.0) == 0.0

    def test_time_only_validation(self):
        assert is_time_only(ig.term(time=ig.Exp(-1.0)))
        assert not is_time_only(h_example())
        assert h_example().with_jump(ig.Const(1.0)).is_space_time_only() is False

    def test_breakpoints(self):
        node = ig.product_node(ig.AbsIndicator(0.2, 0.7), ig.Indicator(-1.0, 0.5), ig.ExpAbs(-1.0))
        assert sorted(ig.breakpoints(node)) == [-1.0, -0.7, -0.2, 0.0, 0.2, 0.5, 0.7]
        assert ig.breakpoints(ig.SignPow(1.0)) == ig.breakpoints(ig.AbsPow(2.0)) == [0.0]
        assert ig.breakpoints(ig.product_node(ig.Cos(1.0), ig.Poly((1.0, 2.0)))) == []

    def test_time_breakpoints_are_indicator_edges(self):
        # the edges of every indicator time factor, alone or in a product;
        # space and jump indicators add none
        H = (ig.term(time=ig.Indicator(0.1, 0.4), space=ig.Indicator(-1.0, 0.5))
             + ig.term(time=ig.product_node(ig.Cos(2.0), ig.AbsIndicator(0.2, 0.7)),
                       jump=ig.AbsIndicator(0.3, 1.0)))
        assert sorted(H.time_breakpoints()) == [0.1, 0.2, 0.4, 0.7]
        assert h_example().time_breakpoints() == []

    def test_integrand_json_round_trip(self):
        H = h_example() + ig.term(time=ig.Cos(2.0), jump=ig.AbsIndicator(0.0, 1.0))
        back = ig.integrand_from_json({"terms": [
            {"time": {"kind": "exp", "rate": -1.0},
             "space": [{"kind": "poly", "coeffs": [1.0, 0.5]}],
             "jump": {"kind": "sign_pow", "power": 1.0}},
            {"time": {"kind": "cos", "freq": 2.0},
             "jump": {"kind": "abs_indicator", "lo": 0.0, "hi": 1.0}}]})
        assert back == H
        for s, x, z in [(0.1, 0.3, 0.5), (1.0, -0.2, -1.4)]:
            assert back(s, x, z) == H(s, x, z)

    def test_two_axis_space(self):
        H = ig.term(space=(ig.Poly((0.0, 1.0)), ig.Exp(-1.0)))
        x = np.array([[2.0, 0.0], [3.0, 1.0]])
        np.testing.assert_allclose(H(0.0, x, 0.0), [2.0, 3.0 * math.exp(-1)], rtol=1e-14)
