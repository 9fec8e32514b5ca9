import itertools
import math

import numpy as np
import pytest

import golden_cases
import instgen
from keyopt.problems import hubtree, pmedian
from keyopt.core import KEY_MAX, ParseError, RngStream, SizeGuardError, random_vector
from keyopt.problems import (
    HubTreeDecoder,
    HubTreeInstance,
    PartitionDecoder,
    PartitionInstance,
    PMedianDecoder,
    PMedianInstance,
    SetCoverDecoder,
    SetCoverInstance,
    TspDecoder,
    assignment_cost,
    brute_force,
    brute_force_hubtree,
    brute_force_partition,
    brute_force_pmedian,
    brute_force_setcover,
    brute_force_tsp,
    cut_value,
    load_instance,
    parse_hubtree,
    parse_orlib_pmed,
    parse_partition,
    plain_routing_cost,
    write_hubtree,
    write_orlib_pmed,
    write_partition,
    write_setcover,
    write_tsp,
)


def fig7_partition_instance() -> PartitionInstance:
    """Six stations, two controllers; handovers laid out so the greedy
    assignment walks exactly as in the worked decoder example."""
    h = np.zeros((6, 6))
    h[3][4] = 191.0
    h[1][4] = 116.0
    h[3][5] = 157.0
    h[4][5] = 150.0
    h[1][5] = 13.0
    h[1][2] = 55.0
    h[0][1] = 30.0
    h[0][2] = 20.0
    return PartitionInstance(traffic=np.ones(6), capacity=[10.0, 10.0], handovers=h)


# ---------------------------------------------------------------- tsp


def test_tsp_example_vector_decodes_to_known_tour():
    inst = instgen.tiny_tsp(np.random.default_rng(0), n=5)
    decoder = TspDecoder(inst)
    keys = np.array([0.085, 0.277, 0.149, 0.332, 0.148])
    _, tour = decoder.decode(keys)
    assert [i + 1 for i in tour] == [1, 5, 3, 2, 4]


def test_tsp_sorted_keys_give_identity_tour():
    inst = instgen.tiny_tsp(np.random.default_rng(1), n=6)
    decoder = TspDecoder(inst)
    _, tour = decoder.decode(np.linspace(0.05, 0.9, 6))
    assert list(tour) == list(range(6))


def test_tsp_cost_matches_independent_recomputation():
    inst = instgen.tiny_tsp(np.random.default_rng(2), n=4)
    decoder = TspDecoder(inst)
    rng = RngStream(3, 0)
    for _ in range(100):
        keys = random_vector(4, rng)
        fit, tour = decoder.decode(keys)
        walked = 0.0
        for a, b in zip(tour, tour[1:] + tour[:1]):
            walked += inst.dist[a, b]
        assert fit.objective == pytest.approx(walked)


def test_tsp_brute_force_dominates_decodes():
    inst = instgen.tiny_tsp(np.random.default_rng(4), n=4)
    decoder = TspDecoder(inst)
    optimum, _ = brute_force_tsp(inst)
    rng = RngStream(5, 0)
    for _ in range(1000):
        fit, _ = decoder.decode(random_vector(4, rng))
        assert fit.objective >= optimum - 1e-9


def test_tsp_roundtrip(tmp_path):
    inst = instgen.tiny_tsp(np.random.default_rng(6), n=5)
    path = tmp_path / "tour.txt"
    write_tsp(inst, path)
    again = load_instance("tsp", path)
    assert np.array_equal(again.dist, inst.dist)
    assert again.n == inst.n


def test_tsp_size_guard():
    inst = instgen.tiny_tsp(np.random.default_rng(7), n=15)
    with pytest.raises(SizeGuardError):
        brute_force_tsp(inst)


# ---------------------------------------------------------------- set cover


def test_setcover_identity_matrix_keeps_all_columns():
    inst = SetCoverInstance(np.eye(5, dtype=int))
    decoder = SetCoverDecoder(inst)
    fit, cover = decoder.decode(np.full(5, 0.9))
    assert fit.objective == 5.0
    assert cover == (0, 1, 2, 3, 4)


def test_setcover_all_low_keys_uses_pure_greedy():
    inst = instgen.tiny_setcover(np.random.default_rng(8), m=6, n=9)
    decoder = SetCoverDecoder(inst)
    fit, cover = decoder.decode(np.full(9, 0.1))
    assert fit.feasible
    assert fit.objective <= 9.0
    covered = inst.a[:, list(cover)].any(axis=1)
    assert covered.all()


def test_setcover_greedy_upper_bounds_brute_force():
    rng = np.random.default_rng(9)
    key_rng = RngStream(10, 0)
    for _ in range(10):
        inst = instgen.tiny_setcover(rng, m=8, n=12)
        decoder = SetCoverDecoder(inst)
        optimum, cover = brute_force_setcover(inst)
        assert inst.a[:, list(cover)].any(axis=1).all()
        for _ in range(50):
            fit, _ = decoder.decode(random_vector(12, key_rng))
            assert fit.objective >= optimum - 1e-9


def test_setcover_minimal_cover_is_reachable():
    inst = instgen.tiny_setcover(np.random.default_rng(11), m=8, n=12)
    decoder = SetCoverDecoder(inst)
    optimum, cover = brute_force_setcover(inst)
    keys = np.full(12, 0.1)
    keys[list(cover)] = 0.9
    fit, decoded = decoder.decode(keys)
    assert fit.objective == optimum


def test_setcover_uncoverable_penalty():
    matrix = np.array([[1, 0], [0, 0]])  # second row uncoverable
    inst = SetCoverInstance(matrix)
    assert not inst.coverable
    decoder = SetCoverDecoder(inst)
    fit, _ = decoder.decode(np.array([0.9, 0.9]))
    assert not fit.feasible
    assert fit.penalty == 1 * 2  # one uncovered row times n columns


def test_setcover_superfluous_removal_scans_ascending():
    # Removal always drops the smallest removable index: here column 0 is
    # itself redundant (columns 1 and 2 still cover every row), so it goes
    # first even though keeping it would have allowed a smaller cover.
    matrix = np.array([[1, 1, 0], [1, 0, 1], [1, 1, 1]])
    decoder = SetCoverDecoder(SetCoverInstance(matrix))
    fit, cover = decoder.decode(np.array([0.9, 0.9, 0.9]))
    assert cover == (1, 2)
    assert fit.objective == 2.0

    # With a row only column 0 covers, the redundant tail columns go instead.
    matrix = np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
    decoder = SetCoverDecoder(SetCoverInstance(matrix))
    fit, cover = decoder.decode(np.array([0.9, 0.9, 0.9]))
    assert cover == (0,)
    assert fit.objective == 1.0


def test_setcover_roundtrip(tmp_path):
    inst = instgen.tiny_setcover(np.random.default_rng(12), m=5, n=7)
    path = tmp_path / "cover.txt"
    write_setcover(inst, path)
    again = load_instance("setcover", path)
    assert np.array_equal(again.a, inst.a)
    assert (again.m, again.n, again.coverable) == (inst.m, inst.n, inst.coverable)


# ---------------------------------------------------------------- p-median


def test_pmedian_example_keys_open_expected_facilities():
    inst = instgen.tiny_pmedian(np.random.default_rng(13), n=10, p=3, alpha=1)
    decoder = PMedianDecoder(inst)
    _, opened = decoder.decode(np.array([0.45, 0.74, 0.12]))
    assert [v + 1 for v in opened] == [5, 8, 1]


def test_pmedian_zero_keys_open_first_facilities():
    inst = instgen.tiny_pmedian(np.random.default_rng(14), n=10, p=3, alpha=1)
    decoder = PMedianDecoder(inst)
    _, opened = decoder.decode(np.zeros(3))
    assert list(opened) == [0, 1, 2]


def test_pmedian_objective_matches_plain_recomputation():
    inst = instgen.tiny_pmedian(np.random.default_rng(15), n=9, p=3, alpha=2)
    decoder = PMedianDecoder(inst)
    rng = RngStream(16, 0)
    for _ in range(200):
        fit, opened = decoder.decode(random_vector(3, rng))
        expected = 0.0
        for v in range(9):
            nearest = sorted(inst.dist[v][j] for j in opened)
            expected += nearest[0] + nearest[1]
        assert fit.objective == pytest.approx(expected)


def test_pmedian_alpha_monotonicity():
    inst = instgen.tiny_pmedian(np.random.default_rng(17), n=8, p=3, alpha=1)
    rng = RngStream(18, 0)
    for _ in range(100):
        keys = random_vector(3, rng)
        opened = PMedianDecoder(inst).decode(keys)[1]
        one = assignment_cost(inst.dist, opened, alpha=1)
        two = assignment_cost(inst.dist, opened, alpha=2)
        assert one <= two + 1e-12


def test_pmedian_brute_force_degenerate_all_facilities():
    inst = instgen.tiny_pmedian(np.random.default_rng(19), n=5, p=5, alpha=1)
    optimum, _ = brute_force_pmedian(inst)
    assert optimum == 0.0


def test_pmedian_brute_force_dominates_decodes():
    inst = instgen.tiny_pmedian(np.random.default_rng(20), n=9, p=3, alpha=2)
    decoder = PMedianDecoder(inst)
    optimum, _ = brute_force_pmedian(inst)
    rng = RngStream(21, 0)
    for _ in range(500):
        fit, _ = decoder.decode(random_vector(3, rng))
        assert fit.objective >= optimum - 1e-9


def test_parse_pmed_triangle(tmp_path):
    path = tmp_path / "triangle.pmed"
    path.write_text("3 3 1\n1 2 1\n2 3 1\n1 3 1\n")
    inst = parse_orlib_pmed(path)
    expected = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(inst.dist, expected)
    assert inst.connected


def test_parse_pmed_path_graph_shortest_paths(tmp_path):
    path = tmp_path / "path.pmed"
    path.write_text("3 2 1\n1 2 1\n2 3 2\n")
    inst = parse_orlib_pmed(path)
    assert inst.dist[0, 2] == 3.0
    assert inst.dist[2, 0] == 3.0


def test_parse_pmed_symmetry_and_diagonal(tmp_path):
    """Write -> load_instance round trip: the distances equal a plain-loop
    shortest-path recomputation from the written edges."""
    rng = np.random.default_rng(22)
    for trial in range(5):
        edges = instgen.connected_graph_edges(rng, 8)
        path = tmp_path / f"rand{trial}.pmed"
        write_orlib_pmed(8, edges, 3, path)
        inst = load_instance("pmedian", path, alpha=2)
        assert np.array_equal(inst.dist, inst.dist.T)
        assert np.all(np.diag(inst.dist) == 0)
        assert inst.p == 3 and inst.alpha == 2 and inst.connected
        assert inst.name == path.name
        d = [[0.0 if i == j else math.inf for j in range(8)] for i in range(8)]
        for i, j, cost in edges:
            d[i][j] = d[j][i] = min(d[i][j], float(cost))
        for k in range(8):
            for i in range(8):
                for j in range(8):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        assert inst.dist.tolist() == d


def test_parse_pmed_disconnected_flagged(tmp_path):
    path = tmp_path / "disc.pmed"
    path.write_text("4 2 1\n1 2 1\n3 4 1\n")
    inst = parse_orlib_pmed(path)
    assert not inst.connected
    assert inst.dist[0, 2] == pytest.approx(1e9)


def test_parse_pmed_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "bad1.pmed"
    bad_header.write_text("3 1\n1 2 1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_orlib_pmed(bad_header)
    bad_edge = tmp_path / "bad2.pmed"
    bad_edge.write_text("3 2 1\n1 2 1\n1 x 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_orlib_pmed(bad_edge)


def _random_weights(rng, n, density, symmetric=True, integer=False):
    w = rng.random((n, n)) * 20.0
    if integer:
        w = np.floor(w) + 1.0
    w[rng.random((n, n)) >= density] = math.inf
    return np.minimum(w, w.T) if symmetric else w


def _list_path_decodes(inst, count=500, seed=0):
    """Decode random, tied and constant key vectors on the list path; yield
    (decoded cost, opened) pairs."""
    decoder = PMedianDecoder(inst)
    assert decoder._near is not None
    rng = np.random.default_rng(seed)
    for i in range(count):
        keys = rng.random(inst.p)
        if i % 5 == 1:
            keys = np.floor(keys * 4) / 4
        elif i % 5 == 2:
            keys = np.full(inst.p, keys[0])
        fit, opened = decoder.decode(keys)
        yield fit.objective, opened


@pytest.mark.parametrize("kind", ["integer", "real", "disconnected"])
def test_pmedian_list_path_cost_equals_assignment_cost(kind):
    rng = np.random.default_rng(31)
    n, p, alpha = 300, 80, 3
    if kind == "real":
        dist = instgen.metric_distances(rng, n)
    else:
        dist = pmedian.floyd_warshall(_random_weights(rng, n, 0.02, integer=True))
        if kind == "disconnected":
            # Components of 200, 90 and 10 vertices.
            for a, b in ((0, 200), (200, 290), (290, 300)):
                dist[a:b, :a] = dist[a:b, b:] = pmedian.UNREACHABLE
            np.fill_diagonal(dist, 0.0)
    assert np.isfinite(dist).all()
    inst = PMedianInstance(dist=dist, p=p, alpha=alpha)
    for cost, opened in _list_path_decodes(inst):
        assert cost == assignment_cost(dist, opened, alpha)


def test_pmedian_list_path_falls_back_for_short_lists(monkeypatch):
    monkeypatch.setattr(pmedian, "NEAR_WIDTH", 8)
    rng = np.random.default_rng(32)
    inst = PMedianInstance(dist=instgen.metric_distances(rng, 100), p=50, alpha=2)
    near, _ = pmedian.near_lists(inst.dist, 8)
    short_rows = 0
    for cost, opened in _list_path_decodes(inst, seed=1):
        assert cost == assignment_cost(inst.dist, opened, inst.alpha)
        short_rows += int((np.isin(near, opened).sum(axis=1) < inst.alpha).sum())
    assert short_rows > 100


@pytest.mark.parametrize("width, n, p, alpha", [
    (13, 100, 50, 3), (13, 100, 40, 1), (64, 900, 70, 2), (64, 900, 65, 1),
])
def test_pmedian_mask_kernel_widths_and_rows_with_exactly_alpha_open(
        width, n, p, alpha, monkeypatch):
    """Lists of 13 entries (not a whole number of bytes) and of 64 (a full
    mask), alpha = 1, and rows whose list holds exactly alpha open
    facilities, so their mask runs empty in the last round."""
    monkeypatch.setattr(pmedian, "NEAR_WIDTH", width)
    rng = np.random.default_rng(35)
    inst = PMedianInstance(dist=instgen.metric_distances(rng, n), p=p, alpha=alpha)
    near, _ = pmedian.near_lists(inst.dist, width)
    exact_rows = 0
    for cost, opened in _list_path_decodes(inst, count=200, seed=2):
        assert cost == assignment_cost(inst.dist, opened, alpha)
        exact_rows += int((np.isin(near, opened).sum(axis=1) == alpha).sum())
    assert exact_rows > 0


def _floor_loop_walk(n, keys) -> tuple:
    candidates = list(range(n))
    return tuple(candidates.pop(math.floor(key * len(candidates))) for key in keys.tolist())


@pytest.mark.parametrize("n, p", [(200, 10), (300, 80)])
def test_pmedian_key_walk_matches_the_floor_loop_on_edge_keys(n, p):
    """Both decode paths open what `math.floor(key * len(candidates))` picks,
    also for keys at and just below the multiples j / len."""
    rng = np.random.default_rng(36)
    decoder = PMedianDecoder(PMedianInstance(dist=instgen.metric_distances(rng, n), p=p))
    lens = np.arange(n, n - p, -1, dtype=float)
    vectors = [np.zeros(p), np.full(p, KEY_MAX)]
    for j in (np.ones(p), np.full(p, 3.0), np.floor(lens / 3), np.floor(lens / 2), lens - 1):
        vectors += [j / lens, np.nextafter(j / lens, 0)]
    vectors += [np.floor(rng.random(p) * 4) / 4 for _ in range(50)]
    for keys in vectors:
        assert decoder.decode(keys)[1] == _floor_loop_walk(n, keys)


def test_pmedian_gather_path_below_the_list_threshold():
    rng = np.random.default_rng(33)
    for n, p, alpha in ((200, 10, 2), (100, 64, 1), (300, 80, 9)):
        inst = PMedianInstance(dist=instgen.metric_distances(rng, n), p=p, alpha=alpha)
        assert PMedianDecoder(inst)._near is None


@pytest.mark.parametrize("strip_rows", [5, None])
@pytest.mark.parametrize("n", [0, 1, 2, 17, 33, 70])
def test_floyd_warshall_equals_plain_passes(n, strip_rows, monkeypatch):
    """The blocked passes give exactly the plain loop's distances, with
    strips of 5 rows and with the default strips."""
    if strip_rows:
        monkeypatch.setattr(pmedian, "FW_STRIP_CELLS", strip_rows * max(n, 1))
    rng = np.random.default_rng(34 + n)
    for weights in (_random_weights(rng, n, 0.3),
                    _random_weights(rng, n, 0.3, symmetric=False),
                    _random_weights(rng, n, 0.05, integer=True)):
        d = weights.copy()
        np.fill_diagonal(d, 0.0)
        for k in range(n):
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
        assert np.array_equal(pmedian.floyd_warshall(weights), d)


# ---------------------------------------------------------------- partition


def test_partition_worked_example():
    decoder = PartitionDecoder(fig7_partition_instance())
    keys = np.array([0.95, 0.10, 0.55, 0.20, 0.30, 0.70, 0.7])
    fit, assignment = decoder.decode(keys)
    groups = {0: [], 1: []}
    for station, ctrl in enumerate(assignment):
        groups[ctrl].append(station + 1)
    assert sorted(groups[0]) == [1, 2, 3]
    assert sorted(groups[1]) == [4, 5, 6]
    assert fit.objective == 129.0  # the two cross-partition entries


def test_partition_single_controller_zero_cut():
    rng = np.random.default_rng(23)
    inst = instgen.tiny_partition(rng, b=6, r=1, slack=(3.0, 4.0))
    decoder = PartitionDecoder(inst)
    fit, assignment = decoder.decode(random_vector(7, RngStream(24, 0)))
    assert fit.objective == 0.0
    assert set(assignment) == {0}


def test_partition_cut_matches_independent_recomputation():
    rng = np.random.default_rng(25)
    inst = instgen.tiny_partition(rng, b=8, r=3)
    decoder = PartitionDecoder(inst)
    key_rng = RngStream(26, 0)
    for _ in range(200):
        fit, assignment = decoder.decode(random_vector(9, key_rng))
        if not fit.feasible:
            continue
        expected = 0.0
        for i in range(8):
            for j in range(8):
                if i != j and assignment[i] != assignment[j]:
                    expected += inst.handovers[i, j]
        assert fit.objective == pytest.approx(expected)


def test_partition_penalty_dominates_any_cut():
    inst = fig7_partition_instance()
    assert inst.penalty_unit == inst.handovers.sum()


def test_partition_parse_fig7_file(tmp_path):
    inst = fig7_partition_instance()
    path = tmp_path / "fig7.txt"
    write_partition(inst, path)
    again = load_instance("partition", path)
    assert again.handovers[3][4] == 191.0  # 1-based stations 4 and 5
    assert np.array_equal(again.traffic, inst.traffic)
    assert np.array_equal(again.capacity, inst.capacity)
    assert np.array_equal(again.handovers, inst.handovers)


def test_partition_parse_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 -2\n5\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_partition(bad)
    nonzero_diag = tmp_path / "diag.txt"
    nonzero_diag.write_text("2 1\n1 1\n5\n3 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_partition(nonzero_diag)


def test_partition_brute_force_single_controller_is_zero():
    inst = instgen.tiny_partition(np.random.default_rng(27), b=5, r=1, slack=(3.0, 4.0))
    optimum, assignment = brute_force_partition(inst)
    assert optimum == 0.0
    assert set(assignment) == {0}


def test_partition_brute_force_dominates_decodes():
    inst = instgen.tiny_partition(np.random.default_rng(28), b=7, r=2)
    decoder = PartitionDecoder(inst)
    optimum, _ = brute_force_partition(inst)
    rng = RngStream(29, 0)
    for _ in range(300):
        fit, _ = decoder.decode(random_vector(8, rng))
        assert fit.objective >= optimum - 1e-9


def reference_partition_decode(inst, keys) -> tuple:
    """The greedy insertion as a straight loop that re-sums, for every
    station and controller, the handovers to the controller's members; the
    objective counts every ordered pair inside a controller."""
    b, r = inst.stations, inst.controllers
    h = inst.handovers.tolist()
    traffic, capacity = inst.traffic.tolist(), inst.capacity.tolist()
    order = sorted(range(b), key=lambda s: keys[s])
    seeds = min(r, max(1, math.ceil(keys[b] * r)))
    assignment = [-1] * b
    members = [[] for _ in range(r)]
    load = [0.0] * r

    def place(station, ctrl):
        assignment[station] = ctrl
        members[ctrl].append(station)
        load[ctrl] += traffic[station]

    pos = next_controller = 0
    while pos < min(seeds, b):
        station = order[pos]
        fits = [c for c in range(next_controller, r)
                if load[c] + traffic[station] <= capacity[c]]
        if not fits:
            break
        place(station, fits[0])
        next_controller = fits[0] + 1
        pos += 1
    for station in order[pos:]:
        best_ctrl, best_gain = -1, -1.0
        for ctrl in range(r):
            if load[ctrl] + traffic[station] > capacity[ctrl]:
                continue
            gain = 0.0
            for member in members[ctrl]:
                gain += h[station][member] + h[member][station]
            if gain > best_gain:
                best_ctrl, best_gain = ctrl, gain
        if best_ctrl >= 0:
            place(station, best_ctrl)
    intra = 0.0
    for group in members:
        for i in group:
            for j in group:
                intra += h[i][j]
    total = float(inst.handovers.sum())
    cost = max(0.0, total - intra) + assignment.count(-1) * total
    return cost, tuple(assignment)


def _partition_key_vectors(rng, b, count):
    """Random key vectors; every fourth one has a seed-count key of 0.0,
    1e-9, 0.5 or KEY_MAX, in turn."""
    seed_keys = (0.0, 1e-9, 0.5, KEY_MAX)
    for i in range(count):
        keys = rng.random(b + 1)
        if i % 4 == 0:
            keys[b] = seed_keys[(i // 4) % len(seed_keys)]
        yield keys


def _integer_partitions():
    rng = np.random.default_rng(31)
    yield instgen.tiny_partition(rng, b=8, r=3, density=0.8)
    yield instgen.tiny_partition(rng, b=12, r=4, slack=(1.0, 1.2))
    yield instgen.handover_partition(rng, b=100, r=15)
    yield instgen.handover_partition(rng, b=100, r=15, slack=1.02)


def test_partition_decoder_matches_member_summing_reference_bit_for_bit():
    rng = np.random.default_rng(32)
    penalized = 0
    for inst in _integer_partitions():
        decoder = PartitionDecoder(inst)
        for keys in _partition_key_vectors(rng, inst.stations, 300):
            fit, assignment = decoder.decode(keys)
            cost, expected = reference_partition_decode(inst, keys)
            assert assignment == expected
            assert fit.objective == cost
            penalized += not fit.feasible
    assert penalized > 0


def test_partition_decoder_matches_reference_on_non_integer_handovers():
    rng = np.random.default_rng(33)
    for inst in _integer_partitions():
        scaled = PartitionInstance(traffic=inst.traffic, capacity=inst.capacity,
                                   handovers=inst.handovers * rng.random(inst.handovers.shape))
        decoder = PartitionDecoder(scaled)
        for keys in _partition_key_vectors(rng, inst.stations, 100):
            fit, assignment = decoder.decode(keys)
            cost, expected = reference_partition_decode(scaled, keys)
            assert assignment == expected
            assert fit.objective == pytest.approx(cost, rel=1e-12)


def _tie_instance(capacity, pairs) -> PartitionInstance:
    """Four stations of traffic 1; station 3 is placed last, after stations
    0, 1 and 2 have seeded controllers 0, 1 and 2.  `pairs` maps
    (from, to) to a handover count."""
    h = np.zeros((4, 4))
    for (i, j), value in pairs.items():
        h[i, j] = value
    return PartitionInstance(traffic=np.ones(4), capacity=capacity, handovers=h)


TIE_KEYS = np.array([0.1, 0.2, 0.3, 0.4, KEY_MAX])


def test_partition_equal_gains_go_to_the_lowest_controller():
    # Station 3 gains 4 on controller 1 (outgoing) and 4 on controller 2
    # (incoming), nothing on controller 0.
    inst = _tie_instance([5.0, 5.0, 5.0], {(3, 1): 4.0, (2, 3): 4.0})
    fit, assignment = PartitionDecoder(inst).decode(TIE_KEYS)
    assert assignment == (0, 1, 2, 1)
    assert fit.objective == 4.0


def test_partition_zero_gains_go_to_the_lowest_feasible_controller():
    # Controller 0 is full after its seed; station 3 exchanges no handovers.
    inst = _tie_instance([1.0, 5.0, 5.0], {(0, 1): 3.0})
    fit, assignment = PartitionDecoder(inst).decode(TIE_KEYS)
    assert assignment == (0, 1, 2, 1)
    assert fit.objective == 3.0


def test_partition_full_controller_is_skipped_despite_higher_gain():
    inst = _tie_instance([1.0, 5.0, 5.0], {(3, 0): 9.0, (3, 2): 2.0})
    fit, assignment = PartitionDecoder(inst).decode(TIE_KEYS)
    assert assignment == (0, 1, 2, 2)
    assert fit.objective == 9.0


def _sharing_cases():
    rng = np.random.default_rng(47)
    return {
        "roomy": instgen.handover_partition(rng, b=100, r=15),
        "tight": instgen.handover_partition(rng, b=100, r=15, slack=1.02),
        "b8": instgen.tiny_partition(rng, b=8, r=3, slack=(1.0, 1.1)),
        "r1": instgen.tiny_partition(rng, b=6, r=1, slack=(3.0, 4.0)),
    }


@pytest.mark.parametrize("case", ["roomy", "tight", "b8", "r1"])
def test_partition_shared_decoder_matches_fresh_decoder_and_keeps_keys(case):
    inst = _sharing_cases()[case]
    shared = PartitionDecoder(inst)
    stream = golden_cases.partition_request_stream(np.random.default_rng(48), inst.stations)
    for keys in itertools.islice(stream, 150):
        before = keys.copy()
        assert shared.decode(keys) == PartitionDecoder(inst).decode(keys)
        assert np.array_equal(keys, before)


def test_partition_seed_phase_cut_short_is_not_replayed():
    # Station 1 fits no controller, so the seed phase of the first vector
    # ends at position 1 with one of three seeds placed.  The second vector
    # differs first at that position, where station 2 can still seed.
    inst = PartitionInstance(traffic=[1.0, 5.0, 1.0, 1.0], capacity=[4.0, 4.0, 4.0],
                             handovers=[[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
    shared = PartitionDecoder(inst)
    _, assignment = shared.decode(np.array([0.1, 0.2, 0.3, 0.4, KEY_MAX]))
    assert assignment == (0, -1, 0, 0)
    keys = np.array([0.1, 0.3, 0.2, 0.4, KEY_MAX])
    fit, assignment = shared.decode(keys)
    assert assignment == (0, -1, 1, 0)
    assert (fit, assignment) == PartitionDecoder(inst).decode(keys)


def _splice_case(traffic, capacity, pairs):
    h = np.zeros((4, 4))
    for (i, j), value in pairs.items():
        h[i, j] = value
    return PartitionInstance(traffic=traffic, capacity=capacity, handovers=h)


# (instance, first keys, second keys, the second's assignment).  In each,
# the second decode reaches a state that matches the first's in all but
# one respect, which changes where a later station goes.
SPLICE_CASES = {
    # Stations 0, 1 and 2 share controller 0 in both orders, but its load
    # is 0.6000000000000001 after the first and 0.6 after the second, so
    # only the second leaves room for station 3.
    "loads-differ-by-rounding": (
        _splice_case([0.1, 0.1, 0.4, 0.1], [0.7], {(3, 0): 1.0}),
        [0.1, 0.2, 0.3, 0.4, 0.5], [0.35, 0.1, 0.2, 0.4, 0.5], (0, 0, 0, 0)),
    # The two seeds swap controllers; the loads stay equal, but station 3
    # follows station 0.
    "seeds-swapped": (
        _splice_case([1.0] * 4, [10.0, 10.0], {(3, 0): 5.0}),
        [0.1, 0.2, 0.3, 0.4, KEY_MAX], [0.2, 0.1, 0.3, 0.4, KEY_MAX], (1, 0, 0, 1)),
    # With one seed instead of three, station 1 goes greedily where the
    # first decode seeded it, but station 2 was still a seed there.
    "seed-phase-still-running": (
        _splice_case([1.0] * 4, [1.0, 10.0, 10.0], {}),
        [0.1, 0.2, 0.3, 0.4, KEY_MAX], [0.1, 0.2, 0.3, 0.4, 0.0], (0, 1, 1, 1)),
}


@pytest.mark.parametrize("case", list(SPLICE_CASES))
def test_partition_splice_needs_the_whole_state_to_match(case):
    inst, first, second, expected = SPLICE_CASES[case]
    shared = PartitionDecoder(inst)
    shared.decode(np.array(first))
    fit, assignment = shared.decode(np.array(second))
    assert assignment == expected
    assert (fit, assignment) == PartitionDecoder(inst).decode(np.array(second))


def test_partition_decoder_does_not_hold_on_to_the_keys():
    inst = instgen.handover_partition(np.random.default_rng(49), b=30, r=4)
    shared = PartitionDecoder(inst)
    keys = np.random.default_rng(50).random(31)
    first = shared.decode(keys)
    keys[:30] = KEY_MAX - keys[:30]  # the station order reversed, in place
    second = shared.decode(keys)
    assert second == PartitionDecoder(inst).decode(keys)
    assert second != first


def test_partition_shared_decoder_on_real_valued_handovers():
    rng = np.random.default_rng(51)
    base = instgen.handover_partition(rng, b=60, r=8, slack=1.05)
    inst = PartitionInstance(traffic=base.traffic * rng.random(60) + 0.5, capacity=base.capacity,
                             handovers=base.handovers * rng.random((60, 60)))
    shared = PartitionDecoder(inst)
    for keys in itertools.islice(golden_cases.partition_request_stream(rng, 60), 150):
        fit, assignment = shared.decode(keys)
        assert (fit, assignment) == PartitionDecoder(inst).decode(keys)
        expected = cut_value(inst.handovers, assignment) + assignment.count(-1) * inst.penalty_unit
        assert fit.objective == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- hub tree


def test_hubtree_all_hubs_zero_discount_costs_nothing():
    rng = np.random.default_rng(30)
    cost = instgen.metric_distances(rng, 4)
    demand = rng.integers(1, 10, size=(4, 4)).astype(float)
    np.fill_diagonal(demand, 0.0)
    inst = HubTreeInstance(cost=cost, demand=demand, hubs=4, discount=0.0)
    decoder = HubTreeDecoder(inst)
    fit, (hubs, hub_of, tree) = decoder.decode(random_vector(inst.dimension, RngStream(31, 0)))
    assert fit.objective == 0.0
    assert sorted(hubs) == [0, 1, 2, 3]
    assert len(tree) == 3


def test_hubtree_ascending_arc_keys_build_lexicographic_kruskal():
    rng = np.random.default_rng(32)
    inst = instgen.tiny_hubtree(rng, n=6, p=3)
    decoder = HubTreeDecoder(inst)
    keys = random_vector(inst.dimension, RngStream(33, 0))
    keys[6 + 3 :] = np.linspace(0.1, 0.9, 3)  # arcs (0,1), (0,2), (1,2)
    _, (hubs, _, tree) = decoder.decode(keys)
    assert tree == ((hubs[0], hubs[1]), (hubs[0], hubs[2]))


def _plain_cost_of(inst, hubs, hub_of, tree):
    """plain_routing_cost of a decoded artifact, whose tree names nodes."""
    pos = {node: i for i, node in enumerate(hubs)}
    plain_tree = tuple((pos[a], pos[b]) for a, b in tree)
    return plain_routing_cost(inst, list(hubs), list(hub_of), plain_tree)


def test_hubtree_cost_matches_plain_recomputation():
    rng = np.random.default_rng(34)
    inst = instgen.tiny_hubtree(rng, n=6, p=3)
    decoder = HubTreeDecoder(inst)
    key_rng = RngStream(35, 0)
    for _ in range(200):
        fit, artifact = decoder.decode(random_vector(inst.dimension, key_rng))
        assert fit.objective == pytest.approx(_plain_cost_of(inst, *artifact))


def test_hubtree_tree_always_spans_hubs():
    rng = np.random.default_rng(36)
    inst = instgen.tiny_hubtree(rng, n=7, p=3)
    decoder = HubTreeDecoder(inst)
    key_rng = RngStream(37, 0)
    for _ in range(300):
        _, (hubs, hub_of, tree) = decoder.decode(random_vector(inst.dimension, key_rng))
        assert len(tree) == 2
        touched = {v for edge in tree for v in edge}
        assert touched <= set(hubs)
        adj = {h: set() for h in hubs}
        for a, b in tree:
            adj[a].add(b)
            adj[b].add(a)
        seen = {hubs[0]}
        stack = [hubs[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert seen == set(hubs)
        assert all(hub_of[h] == h for h in hubs)


def test_hubtree_brute_force_dominates_decodes():
    inst = instgen.tiny_hubtree(np.random.default_rng(38), n=5, p=3)
    decoder = HubTreeDecoder(inst)
    optimum, _ = brute_force_hubtree(inst)
    rng = RngStream(39, 0)
    for _ in range(300):
        fit, _ = decoder.decode(random_vector(inst.dimension, rng))
        assert fit.objective >= optimum - 1e-6 * max(1.0, optimum)


def test_hubtree_shared_decoder_matches_fresh_decoder_and_keeps_keys():
    inst = instgen.tiny_hubtree(np.random.default_rng(42), n=9, p=3)
    shared = HubTreeDecoder(inst)
    rng = np.random.default_rng(43)
    seen = []
    keys = rng.random(inst.dimension)
    for i in range(240):
        if i % 4 == 1:  # one key of the vector before
            keys = keys.copy()
            keys[rng.integers(inst.dimension)] = rng.random()
        elif i % 4 == 2:  # an exact repeat
            keys = seen[rng.integers(len(seen))].copy()
        elif i % 4 == 3:  # quarter-grid ties
            keys = np.floor(rng.random(inst.dimension) * 4) / 4
        else:
            keys = rng.random(inst.dimension)
        seen.append(keys)
        before = keys.copy()
        assert shared.decode(keys) == HubTreeDecoder(inst).decode(keys)
        assert np.array_equal(keys, before)


def test_hubtree_memos_stay_within_their_bound():
    inst = instgen.tiny_hubtree(np.random.default_rng(44), n=12, p=4)
    decoder = HubTreeDecoder(inst)
    rng = np.random.default_rng(45)
    pairs, artifacts = set(), set()
    for _ in range(hubtree.MEMO_SIZE + 200):
        _, artifact = decoder.decode(rng.random(inst.dimension))
        pairs.add((artifact[0], artifact[2]))
        artifacts.add(artifact)
    assert min(len(pairs), len(artifacts)) > hubtree.MEMO_SIZE
    assert 0 < len(decoder._paths) <= hubtree.MEMO_SIZE
    assert 0 < len(decoder._fits) <= hubtree.MEMO_SIZE


@pytest.mark.parametrize("n,p", [(6, 1), (5, 5)])
def test_hubtree_one_hub_and_all_hubs_match_plain_recomputation(n, p):
    inst = instgen.tiny_hubtree(np.random.default_rng(46), n=n, p=p)
    decoder = HubTreeDecoder(inst)
    rng = RngStream(47, 0)
    for _ in range(20):
        fit, (hubs, hub_of, tree) = decoder.decode(random_vector(inst.dimension, rng))
        assert len(hubs) == p and len(tree) == p - 1
        if p == n:
            assert hub_of == tuple(range(n))
        else:
            assert set(hub_of) == set(hubs)
        assert fit.objective == pytest.approx(_plain_cost_of(inst, hubs, hub_of, tree))


def test_hubtree_roundtrip(tmp_path):
    inst = instgen.tiny_hubtree(np.random.default_rng(40), n=5, p=3, discount=0.35)
    path = tmp_path / "hub.txt"
    write_hubtree(inst, path)
    again = load_instance("hubtree", path)
    assert np.array_equal(again.cost, inst.cost)
    assert np.array_equal(again.demand, inst.demand)
    assert again.hubs == inst.hubs
    assert again.discount == inst.discount


def test_hubtree_single_node_rejected(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1 1 0.5\n0\n0\n")
    with pytest.raises(ParseError):
        parse_hubtree(path)


# ---------------------------------------------------------------- totality


def test_decoder_totality_fuzz(tiny_decoders):
    rng = RngStream(41, 0)
    for decoder in tiny_decoders.values():
        for _ in range(2000):
            fit, _ = decoder.decode(random_vector(decoder.dimension, rng))
            assert math.isfinite(fit.objective)


def test_brute_force_dispatch(tiny_decoders):
    inst = instgen.tiny_pmedian(np.random.default_rng(42), n=6, p=2)
    direct = brute_force_pmedian(inst)
    routed = brute_force("pmedian", inst)
    assert routed == direct


# ---------------------------------------------------------------- file rules

# (problem, case, file text, faulty line or None, message fragment); every
# file is loaded with alpha=2, which only the p-median reads.
MALFORMED = [
    ("tsp", "header-arity", "2 junk\n0 1\n1 0\n", 1, "header"),
    ("tsp", "non-numeric", "2\n0 1\n# note\n\n1 x\n", 5, "bad distance row"),
    ("tsp", "too-few-rows", "2\n0 1\n", None, "expected 2 distance rows, found 1"),
    ("tsp", "surplus-row", "2\n0 1\n1 0\n1 0\n", 4, "unexpected line"),
    ("tsp", "validation", "2\n1 1\n1 0\n", None, "zero diagonal"),
    ("tsp", "not-text", b"2\n\xff\xfe 0\n", None, "not a text file"),
    ("setcover", "header-arity", "2 3 4\n1 0 1\n0 1 0\n", 1, "header"),
    ("setcover", "non-numeric", "2 3\n1 0 1\n# note\n\n0 y 0\n", 5, "bad matrix row"),
    ("setcover", "too-few-rows", "2 3\n1 0 1\n", None, "expected 2 matrix rows, found 1"),
    ("setcover", "surplus-row", "2 3\n1 0 1\n0 1 0\n1 1 1\n", 4, "unexpected line"),
    ("setcover", "validation", "2 3\n1 0 2\n0 1 0\n", None, "binary"),
    ("pmedian", "header-arity", "3 2\n1 2 1\n2 3 2\n", 1, "header"),
    ("pmedian", "non-numeric", "3 2 2\n1 2 1\n# note\n\n2 x 2\n", 5, "bad edge row"),
    ("pmedian", "too-few-rows", "3 2 2\n1 2 1\n", None, "expected 2 edge rows, found 1"),
    ("pmedian", "surplus-row", "3 2 2\n1 2 1\n2 3 2\n1 3 5\n", 4, "unexpected line"),
    ("pmedian", "vertex-range", "3 2 2\n1 2 1\n2 4 2\n", 3, "vertex id out of range"),
    ("pmedian", "validation", "3 2 1\n1 2 1\n2 3 2\n", None, "alpha"),
    ("pmedian", "nan-edge-cost", "3 2 2\n1 2 nan\n2 3 2\n", 2, "not a finite number"),
    ("pmedian", "inf-edge-cost", "3 2 2\n1 2 1\n2 3 inf\n", 3, "not a finite number"),
    ("partition", "header-arity", "2 1 7\n1 1\n5\n0 1\n1 0\n", 1, "header"),
    ("partition", "non-numeric", "2 1\n1 1\n5\n0 1\n# note\n\n1 z\n", 7, "bad handover row"),
    ("partition", "too-few-rows", "2 1\n1 1\n5\n0 1\n", None,
     "expected 2 handover rows, found 1"),
    ("partition", "surplus-row", "2 1\n1 1\n5\n0 1\n1 0\n1 0\n", 6, "unexpected line"),
    ("partition", "validation", "2 1\n1 1\n5\n3 1\n1 0\n", None, "zero diagonal"),
    ("partition", "nan-handover", "2 1\n1 1\n5\n0 nan\n1 0\n", None, "finite numbers"),
    ("partition", "nan-traffic", "2 1\nnan 1\n5\n0 1\n1 0\n", None, "finite numbers"),
    ("partition", "inf-capacity", "2 1\n1 1\ninf\n0 1\n1 0\n", None, "finite numbers"),
    ("hubtree", "header-arity", "2 1\n0 1\n1 0\n0 2\n3 0\n", 1, "header"),
    ("hubtree", "non-numeric", "2 1 0.5\n0 1\n1 0\n# note\n\n0 q\n3 0\n", 6,
     "bad demand row"),
    ("hubtree", "too-few-rows", "2 1 0.5\n0 1\n1 0\n0 2\n", None,
     "expected 2 demand rows, found 1"),
    ("hubtree", "surplus-row", "2 1 0.5\n0 1\n1 0\n0 2\n3 0\n3 0\n", 6, "unexpected line"),
    ("hubtree", "validation", "2 1 0.5\n0 1\n2 0\n0 2\n3 0\n", None, "symmetric"),
    ("hubtree", "nan-demand", "2 1 0.5\n0 1\n1 0\n0 nan\n3 0\n", None, "finite numbers"),
    ("hubtree", "inf-cost", "2 1 0.5\n0 inf\ninf 0\n0 2\n3 0\n", None, "finite numbers"),
]


@pytest.mark.parametrize(
    "problem, text, line, fragment",
    [case[:1] + case[2:] for case in MALFORMED],
    ids=[f"{case[0]}-{case[1]}" for case in MALFORMED],
)
def test_malformed_files_raise_parse_error_with_line(tmp_path, problem, text, line, fragment):
    path = tmp_path / f"{problem}.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ParseError) as info:
        load_instance(problem, path, alpha=2)
    message = str(info.value)
    assert str(path) in message
    assert fragment in message
    assert info.value.line == line
    if line is not None:
        assert message.startswith(f"line {line}: ")
