"""The sinh-mapped grid of `spectrum`, `compare-ordering` and `verify` for
s ≥ 0.

Each claim is checked through the command line where it is a claim about
its output, and on the library's bands where it is a claim about the
stencil.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from pdemosc import (
    Kind,
    build_grid,
    eigenfunction_samples,
    energy,
    inner_product,
    make_family,
    run,
    verify_all,
)
from pdemosc import discrete
from pdemosc.errors import InvalidLambdaError
from pdemosc.families import (
    VonRoosOrdering,
    masses_on,
    potentials_on,
)
from pdemosc.sampling import eigenfunction_lists


def _json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _level_errors(family, lam, *flags):
    doc = _json(["spectrum", "--family", family, "--lambda", repr(lam), *flags])
    return [level["abs_error"] for level in doc["levels"]]


# at the parent grid, uniform and sized for the ground state, these were
# 0.486, 0.683, 5.7e-2 and 1.08
@pytest.mark.parametrize("family, lam, flags, levels, bound", [
    ("case1", 0.3, [], 3, 1e-4),
    ("case1", 0.45, [], 2, 1e-4),
    ("case1", 0.1, [], 10, 1e-2),
    ("constant", 0.0, ["--n-max", "30"], 31, 1e-2),
], ids=["case1-lam0.3", "case1-lam0.45", "case1-lam0.1-n9", "constant-n30"])
def test_default_flags_reach_the_closed_form(family, lam, flags, levels, bound):
    errors = _level_errors(family, lam, *flags)
    assert len(errors) == levels
    assert max(errors) < bound, errors


@pytest.mark.parametrize("family, lam, n_max", [
    ("case1", 0.1, "9"), ("constant", 0.0, "12"),
], ids=["s>0", "s=0"])
def test_observed_order_is_two(family, lam, n_max):
    coarse, fine = (max(_level_errors(family, lam, "--n-max", n_max,
                                      "--grid-n", str(n)))
                    for n in (2000, 4000))
    assert 1.8 <= math.log2(coarse / fine) <= 2.2, (coarse, fine)


ORDERINGS = [(-0.5, 0.0, -0.5), (-0.25, -0.5, -0.25), (0.0, -1.0, 0.0),
             (-0.75, -0.25, 0.0)]


@pytest.mark.parametrize("family, lam", [
    ("case1", 0.1), ("case1", 0.3), ("case2", 10.0), ("constant", 0.0),
], ids=["case1-lam0.1", "case1-lam0.3", "case2-lam10", "constant"])
def test_orderings_match_their_closed_form_at_second_order(family, lam):
    # For m = c/(1 + s x²) and a + b + c = −1, the von Roos Hamiltonian of
    # (a, b, c) is the symmetric one at α′ shifted by a constant (von Roos
    # 1983; Bagchi, Banerjee, Quesne and Tkachuk 2005):
    # E_n = E_n^sym(α′) + s(a + c)/(2c) with α′² = α² + 4ac·s²/c²
    profile = make_family(Kind(family), 1.0, lam).profile
    errors = {}
    for n in (2000, 4000):
        doc = _json(["compare-ordering", "--family", family, "--lambda",
                     repr(lam), "--grid-n", str(n),
                     *[f"--ordering={a!r},{b!r},{c!r}" for a, b, c in ORDERINGS]])
        assert doc["grid"]["map"] == "sinh"
        for o in doc["orderings"]:
            a, c = o["a"], o["c"]
            shifted = make_family(
                Kind(family),
                math.sqrt(1.0 + 4.0 * a * c * (profile.s / profile.c) ** 2), lam)
            want = [energy(shifted, k) + profile.s * (a + c) / (2.0 * profile.c)
                    for k in range(len(o["eigenvalues"]))]
            errors.setdefault((a, c), []).append(
                max(abs(got - ref) for got, ref in zip(o["eigenvalues"], want)))
    for (a, c), (coarse, fine) in errors.items():
        assert fine < 1e-3, (a, c, fine)
        assert 1.8 <= math.log2(coarse / fine) <= 2.2, (a, c, coarse, fine)


def _whole_grid_weights(grid):
    """The finite-volume weights (x_{i+1} − x_{i−1})/2 written out on every
    node, the walls being nodes 0 and n+1, as a reference."""
    edges = grid.nodes(grid.n + 1, -1)
    return [0.5 * (edges[i + 1] - edges[i - 1]) for i in range(1, grid.n + 1)]


def _whole_grid_stencil(fam, grid, ordering):
    """(diag, offdiag) of the mapped stencil written out on every node, from
    the two composition orders and the finite-volume weights, as a
    reference."""
    edges = grid.nodes(grid.n + 1, -1)  # nodes 0 … n+1, the walls at the ends
    xs, mids = edges[1:-1], grid.midpoints(grid.n + 1)
    ms = masses_on(fam.profile, xs)
    kappa = [m / (r - l) for m, l, r in zip(
        discrete._powers(masses_on(fam.profile, mids), ordering.b),
        edges, edges[1:])]
    weight = _whole_grid_weights(grid)
    ma = discrete._powers(ms, ordering.a)
    mc = discrete._powers(ms, ordering.c)
    potential = potentials_on(fam, xs, ms)
    diag = [0.5 * a * c * (kl + kr) / w + v for a, c, kl, kr, w, v in
            zip(ma, mc, kappa, kappa[1:], weight, potential)]
    off = []
    for i in range(grid.n - 1):
        k = kappa[i + 1] / math.sqrt(weight[i] * weight[i + 1])
        a0, a1, c0, c1 = ma[i], ma[i + 1], mc[i], mc[i + 1]
        off.append(-0.125 * ((a0 * k * c1 + c0 * k * a1)
                             + (a1 * k * c0 + c1 * k * a0)))
    return diag, off


def _hex(xs):
    return [float.hex(x) for x in xs]


R = discrete.ROWS


@pytest.mark.parametrize("n", [
    600, 601,
    # (n+1)//2 = R + 1 rows: a last block of one row, with the centre
    # coupling for an even n and none for an odd one
    2 * R + 1, 2 * R + 2,
    # whole blocks, and n//2 = 2R couplings in whole blocks
    4 * R - 1, 4 * R, 4 * R + 1,
    3 * R + 6,
])
@pytest.mark.parametrize("kind, lam", [
    (Kind.CASE1, 0.1), (Kind.CASE2, 10.0), (Kind.CONSTANT, 0.0),
], ids=["case1", "case2", "constant"])
def test_mapped_stencil_matches_the_whole_grid_and_splits(kind, lam, n):
    # the left half, a block of rows at a time and mirrored, is bit for bit
    # the stencil written out on every node, so the bands are exactly
    # mirror-symmetric and the eigensolver splits them into parity blocks
    fam = make_family(kind, 1.3, lam)
    grid = build_grid(fam, n, n_max=3)
    assert grid.beta == math.sqrt(1.3)
    # the one node-weight rule is the stencil's, and mirrors bit for bit
    weights = grid.weights()
    assert _hex(weights) == _hex(_whole_grid_weights(grid))
    assert weights == weights[::-1]
    for abc in [(0.0, -1.0, 0.0), (-0.5, 0.0, -0.5), (-0.7, -0.2, -0.1)]:
        ordering = VonRoosOrdering(*abc)
        T = discrete.assemble_lists(fam, grid, ordering)
        diag, off = _whole_grid_stencil(fam, grid, ordering)
        assert _hex(T.diag) == _hex(diag), abc
        assert _hex(T.offdiag) == _hex(off), abc
        assert len(discrete._parity_blocks(T.diag, T.offdiag)) == 2


@pytest.mark.parametrize("n", [4000, 4001])
def test_mapped_nodes_mirror_bit_for_bit(n):
    grid = build_grid(make_family(Kind.CASE1, 1.0, 0.1), n, n_max=9)
    xs, mids = grid.nodes(), grid.midpoints(n + 1)
    # the nodes of an index array are the same math.sinh values
    assert _hex(grid.node(np.arange(1, n + 1))) == _hex(xs)
    assert _hex(grid.node(np.arange(18, 401))) == _hex(grid.nodes(400, 17))
    assert _hex(grid.midpoint(np.arange(n + 1))) == _hex(mids)
    assert xs == [-x for x in reversed(xs)]
    assert mids == [-x for x in reversed(mids)]
    assert xs[0] == grid.node(1) and mids[0] == grid.midpoint(0)
    # node 0 and node n+1 are the walls
    assert grid.node(0) == -grid.node(n + 1)
    assert grid.node(n + 1) == pytest.approx(grid.wall, rel=1e-12)
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_the_box_holds_the_highest_level():
    # at n_max = 0 the box is the ground state's; for s = 0 it then widens
    # to where ζⁿe^(−ζ²/2) falls to the tail of its own peak
    for kind, lam in [(Kind.CONSTANT, 0.0), (Kind.CASE1, 0.1), (Kind.CASE2, 10.0)]:
        fam = make_family(kind, 1.0, lam)
        ground = build_grid(fam, 4000)
        assert build_grid(fam, 4000, n_max=0).wall == pytest.approx(ground.hi,
                                                                   rel=1e-12)
        walls = [build_grid(fam, 4000, n_max=n).wall for n in range(10)]
        assert all(a < b for a, b in zip(walls, walls[1:]))
    fam = make_family(Kind.CONSTANT, 1.0)
    n = 30
    wall = build_grid(fam, 4000, n_max=n).wall
    envelope = n * math.log(wall / math.sqrt(n)) - (wall * wall - n) / 2
    assert envelope == pytest.approx(math.log(1e-12), rel=1e-9)


def test_a_box_past_a_double_is_refused_not_capped():
    for kind, lam, n_max, tail in [(Kind.CASE1, 1.9, 0, 1e-300),
                                   (Kind.CASE1, 0.1, 9, 1e-300),
                                   (Kind.CASE1, 0.3, 2, 1e-250)]:
        with pytest.raises(InvalidLambdaError, match="tail tolerance"):
            build_grid(make_family(kind, 1.0, lam), 1000, tail, n_max)


def test_compact_domains_and_unlevelled_grids_stay_uniform():
    fam = make_family(Kind.CASE3, 1.0, 0.2)
    assert build_grid(fam, 1000, n_max=5) == build_grid(fam, 1000)
    assert build_grid(fam, 1000).beta == 0.0
    grid = build_grid(make_family(Kind.CASE1, 1.0, 0.1), 1000)
    assert grid.beta == 0.0
    # a uniform grid's node weight is the scalar h
    assert grid.weights() == grid.h and isinstance(grid.weights(), float)


def test_json_grid_names_its_map():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 1000, n_max=9)
    for command in (["spectrum"], ["compare-ordering", "--ordering=-0.5,0,-0.5"]):
        doc = _json([*command, "--family", "case1", "--lambda", "0.1",
                     "--grid-n", "1000"])
        assert doc["grid"] == {"lo": -grid.wall, "hi": grid.wall, "n": 1000,
                               "map": "sinh", "scale": 1.0}
    # eigenfunctions keeps the uniform ground-state box, and its bytes
    doc = _json(["eigenfunctions", "--family", "case1", "--lambda", "0.1",
                 "--grid-n", "1000"])
    uniform = build_grid(fam, 1000)
    assert doc["grid"] == {"lo": -uniform.hi, "hi": uniform.hi, "n": 1000}


def _weighted_sum(weights, f, g):
    return math.fsum(w * x * y for w, x, y in zip(weights, f, g))


@pytest.mark.parametrize("kind, lam, n_max", [
    (Kind.CASE1, 0.1, 5), (Kind.CONSTANT, 0.0, 9), (Kind.CASE1, 0.3, 2),
], ids=["case1-lam0.1", "constant", "case1-lam0.3"])
def test_mapped_states_are_orthonormal_in_the_node_weights(kind, lam, n_max):
    # eigenpair_lists returns W^(-1/2) times the eigenvectors of the
    # weighted stencil; with the sampled closed form on the same grid it
    # makes a Gram matrix that is I up to the discretization error
    fam = make_family(kind, 1.0, lam)
    errors = []
    for n in (1000, 4000):
        grid = build_grid(fam, n, n_max=n_max)
        weights = grid.weights()
        exact = eigenfunction_lists(fam, n_max, grid)
        _, numeric = discrete.eigenpair_lists(
            discrete.assemble_lists(fam, grid), n_max + 1, weights)
        for phi in exact + numeric:
            assert abs(_weighted_sum(weights, phi, phi) - 1.0) < 1e-12
        errors.append(max(abs(_weighted_sum(weights, u, v) - (i == j))
                          for i, u in enumerate(numeric)
                          for j, v in enumerate(exact)))
        # the numpy sampler and quadrature agree with the float ones
        phi = eigenfunction_samples(fam, n_max, grid)
        assert abs(inner_product(phi, phi, grid) - 1.0) < 1e-12
        assert max(abs(a - b) for a, b in zip(phi, exact[-1])) < 1e-13
    coarse, fine = errors
    assert coarse < 3e-4 and fine < 2e-5, errors
    assert 1.8 <= math.log(coarse / fine) / math.log(4.0) <= 2.2, errors


# each normalizes in the grid's node weights, where it once took h as the
# weight of every node and refused a mapped grid
WEIGHTED = {
    "eigenfunction_samples": lambda fam, grid: [eigenfunction_samples(fam, 0, grid)],
    "eigenfunction_lists": lambda fam, grid: eigenfunction_lists(fam, 0, grid),
    "eigenpair_lists": lambda fam, grid: discrete.eigenpair_lists(
        discrete.assemble_lists(fam, grid), 1, grid.weights())[1],
}


@pytest.mark.parametrize("name", WEIGHTED)
@pytest.mark.parametrize("kind, lam", [
    (Kind.CASE1, 0.1), (Kind.CASE2, 10.0), (Kind.CONSTANT, 0.0),
], ids=["case1", "case2", "constant"])
def test_weighted_calls_answer_on_a_mapped_grid(kind, lam, name):
    fam = make_family(kind, 1.0, lam)
    for n_max in (0, 3):
        grid = build_grid(fam, 1000, n_max=n_max)
        assert grid.beta, n_max
        [phi] = WEIGHTED[name](fam, grid)
        assert abs(inner_product(phi, phi, grid) - 1.0) < 1e-12
        assert phi[-1] > 0


@pytest.mark.parametrize("kind, lam", [
    (Kind.CASE1, 0.1), (Kind.CASE2, 10.0), (Kind.CONSTANT, 0.0),
], ids=["case1", "case2", "constant"])
def test_verify_all_answers_on_a_mapped_grid(kind, lam):
    # verify_all takes its residuals in the frame of the node weights, so
    # the level box passes as the uniform ground-state box does
    fam = make_family(kind, 1.0, lam)
    for n_max in (0, 3):
        grid = build_grid(fam, 1000, n_max=n_max)
        assert grid.beta, n_max
        report = verify_all(fam, grid)
        assert all(e.passed for e in report.values()), (n_max, report)
    verify_all(fam, build_grid(fam, 1000))


@pytest.mark.parametrize("family, lam", [
    ("case1", "0.12"), ("case1", "0.2"), ("case1", "0.3"), ("case1", "0.45"),
    ("case2", "5"),
])
def test_verify_passes_on_the_level_box_at_default_flags(capsys, family, lam):
    # on the uniform ground-state box these exited 3 on correct code, at
    # 2.5 to 1e4 times a tolerance; verify now sizes its sinh-mapped box
    # for its highest test state, as spectrum does for its highest level
    code = run(["verify", "--family", family, "--lambda", lam])
    out, err = capsys.readouterr()
    payload = json.loads(out.splitlines()[-1])
    assert code == 0 and err == "", payload
    assert payload["grid"]["map"] == "sinh" and payload["grid"]["n"] == 4000


@pytest.mark.parametrize("kind, lam", [(Kind.CASE1, 0.3), (Kind.CONSTANT, 0.0)],
                         ids=["case1", "constant"])
def test_verify_residuals_are_second_order_on_the_level_box(kind, lam):
    # each measured residual falls as h² in u from N = 4000 to 16000
    from pdemosc.susy import state_count

    fam = make_family(kind, 1.0, lam)
    n_max = state_count(fam) - 1
    coarse, fine = (verify_all(fam, build_grid(fam, n, n_max=n_max))
                    for n in (4000, 16000))
    for name, entry in coarse.items():
        if entry.tolerance:
            order = math.log(entry.value / fine[name].value) / math.log(4.0)
            assert 1.8 <= order <= 2.2, (name, order)
