"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete. The two training criteria (overfit smoke and the synthetic
cross-emotion benchmark) use the shipped RunConfig defaults.
"""

import time

import numpy as np
import pytest

from facegcn import dataset_synth, st_graph, stgcn_net
from facegcn.config import RunConfig
from facegcn.dataset_synth import SynthConfig, build_dataset, cross_emotion_split
from facegcn.landmark_engine import geodesic_midpoint, geodesic_path, lift_landmarks
from facegcn.mesh_core import TexturedMesh, build_edge_graph, load_mesh, write_mesh
from facegcn.patch_features import KdIndex, build_sequence_tensor, load_tensor, save_tensor
from facegcn.st_graph import (
    SpatialGraph,
    load_graph,
    normalize_adjacency,
    partition,
    save_graph,
)
from facegcn.stgcn_net import (
    GradientTape,
    GraphConvParams,
    ModelArch,
    backward,
    cross_entropy,
    evaluate,
    forward,
    graph_conv,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train_model,
)
from stgcn_testutil import (
    cardinalities,
    finite_difference_check,
    graph_conv_reference,
    random_regular_graph,
    toy_model_and_input,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def synth_mesh(grid=10, seed=31, t=1, total=5):
    return dataset_synth.make_frame_mesh(
        dataset_synth.IdentityParams(seed=seed, grid=grid),
        dataset_synth.ExpressionParams(emotion=1),
        t,
        total,
    )


def default_model(norm, in_channels, num_classes, seed):
    cfg = RunConfig()
    arch = ModelArch(
        in_channels=in_channels,
        block_channels=cfg.model.block_channels,
        strides=cfg.model.strides,
        kernel_size=cfg.model.kernel_size,
        num_classes=num_classes,
        graph_conv_bias=cfg.model.graph_conv_bias,
        residual=cfg.model.residual,
    )
    return init_model(arch, norm, seed=seed)


def run_default_training(samples, train_emotions, epochs, seed):
    cfg = RunConfig()
    if train_emotions is None:
        train_side, test_side = list(samples), []
    else:
        train_side, test_side = cross_emotion_split(samples, train_emotions)
    landmarks = None  # graph comes from the caller-built landmark set
    return cfg, train_side, test_side


def test_criterion_1_eq1_eq2_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    while count < 200:
        j = int(rng.integers(4, 9))
        d = int(rng.choice([2, 3]))
        if (j * d) % 2 or d >= j:
            continue
        graph = random_regular_graph(j, d, rng)
        labels = partition(graph, "uniform")
        norm = normalize_adjacency(graph, labels)
        z = cardinalities(graph, labels)
        c_in, c_out, t = (int(x) for x in rng.integers(1, 5, size=3))
        params = GraphConvParams(weights=rng.normal(size=(1, c_out, c_in)))
        f = rng.normal(size=(c_in, j, t))
        fast = graph_conv(f, params, norm)
        ref = graph_conv_reference(f, params, graph, labels, z)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst = max(worst, float(np.max(np.abs(fast - ref))) / scale)
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report(1, "Eq1/Eq2 equivalence", ok, f"200 graphs, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    model, x = toy_model_and_input(dtype=np.float64)
    checked, failed, worst = finite_difference_check(
        model, x, label=1, h=1e-3, rel_tol=1e-4, abs_tol=1e-7
    )
    elapsed = time.perf_counter() - t0
    ok = failed == 0 and elapsed < 60.0
    report(2, "gradient vs finite differences", ok,
           f"{checked} coords, {failed} failures, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_kdtree_oracle():
    rng = np.random.default_rng(103)
    mismatches = 0
    total = 0
    for cloud_idx in range(50):
        if cloud_idx % 5 == 4:
            # lattice cloud: queries at cell centers force exact distance ties
            side = int(rng.integers(4, 11))
            g = np.arange(side, dtype=np.float64)
            pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
            pts = pts[: min(len(pts), 2000)]
            queries = rng.integers(0, side - 1, size=(50, 3)) + 0.5
        else:
            n = int(rng.integers(20, 2001))
            pts = rng.normal(size=(n, 3)) * rng.uniform(0.1, 10)
            queries = rng.normal(size=(50, 3)) * rng.uniform(0.1, 10)
        index = KdIndex(pts)
        for q in queries:
            d2 = ((pts - q) ** 2).sum(axis=1)
            order = np.lexsort((np.arange(len(pts)), d2))
            for k in (1, 5, 20):
                expect = order[: min(k, len(pts))]
                got = index.k_nearest(q, k)
                total += 1
                if not np.array_equal(got, expect):
                    mismatches += 1
    report(3, "kNN index vs brute force", mismatches == 0,
           f"{total} queries (incl. lattice ties), {mismatches} mismatches")


def test_criterion_4_geodesic_properties():
    mesh = synth_mesh(grid=30, seed=41)
    graph = build_edge_graph(mesh)
    rng = np.random.default_rng(104)
    n = graph.n_nodes

    sym_bad = chord_bad = mid_bad = 0
    for _ in range(60):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a == b:
            continue
        fwd = geodesic_path(graph, a, b)
        rev = geodesic_path(graph, b, a)
        if fwd.total_length != rev.total_length:
            sym_bad += 1
        chord = float(np.linalg.norm(mesh.vertices[a] - mesh.vertices[b]))
        if fwd.total_length < chord - 1e-9:
            chord_bad += 1
        v, _ = geodesic_midpoint(fwd)
        idx = int(np.nonzero(fwd.vertices == v)[0][0])
        max_edge = float(np.diff(fwd.cumulative).max())
        if abs(fwd.cumulative[idx] - fwd.total_length / 2) > max_edge + 1e-12:
            mid_bad += 1

    # triangle inequality over 1000 sampled triples on a smaller grid
    small = synth_mesh(grid=16, seed=42)
    sgraph = build_edge_graph(small)
    sn = sgraph.n_nodes
    cache: dict[tuple[int, int], float] = {}

    def dist(a, b):
        key = (min(a, b), max(a, b))
        if key not in cache:
            cache[key] = geodesic_path(sgraph, key[0], key[1]).total_length
        return cache[key]

    tri_bad = 0
    for _ in range(1000):
        a, b, c = (int(x) for x in rng.integers(0, sn, size=3))
        if dist(a, c) > dist(a, b) + dist(b, c) + 1e-9:
            tri_bad += 1
    ok = sym_bad == chord_bad == mid_bad == tri_bad == 0
    report(4, "geodesic properties", ok,
           f"sym={sym_bad} chord={chord_bad} midpoint={mid_bad} triangle={tri_bad} violations")


def test_criterion_5_normalized_adjacency():
    rng = np.random.default_rng(105)
    bad_sum = bad_sym = bad_radius = bad_perm = 0
    for trial in range(100):
        j = int(rng.integers(2, 13))
        a = np.zeros((j, j), dtype=np.int8)
        for i in range(j):
            for k in range(i + 1, j):
                if rng.random() < 0.4:
                    a[i, k] = a[k, i] = 1
        graph = SpatialGraph(adjacency=a)
        strategy = "distance" if trial % 2 else "uniform"
        labels = partition(graph, strategy)
        norm = normalize_adjacency(graph, labels)

        degree = a.astype(np.float64).sum(axis=1) + 1.0
        scale = np.outer(1 / np.sqrt(degree), 1 / np.sqrt(degree))
        if not np.array_equal(norm.sum(axis=0), (a + np.eye(j)) * scale):
            bad_sum += 1

        uni = normalize_adjacency(graph, partition(graph, "uniform"))[0]
        if not np.array_equal(uni, uni.T):
            bad_sym += 1
        x = rng.normal(size=j)
        for _ in range(200):
            y = uni @ x
            nrm = np.linalg.norm(y)
            if nrm == 0:
                break
            x = y / nrm
        radius = float(abs(x @ (uni @ x)))
        if radius > 1 + 1e-6:
            bad_radius += 1

        perm = rng.permutation(j)
        pgraph = SpatialGraph(adjacency=a[np.ix_(perm, perm)])
        pnorm = normalize_adjacency(pgraph, partition(pgraph, strategy))
        for p in range(labels.P):
            if not np.array_equal(pnorm[p], norm[p][np.ix_(perm, perm)]):
                bad_perm += 1
    ok = bad_sum == bad_sym == bad_radius == bad_perm == 0
    report(5, "normalized adjacency", ok,
           f"100 graphs: sum={bad_sum} sym={bad_sym} radius={bad_radius} perm={bad_perm} bad")


def test_criterion_6_invariance_suite():
    # (a) node-permutation logit invariance
    model, x = toy_model_and_input(dtype=np.float32)
    perm = np.array([2, 0, 3, 1])
    permuted = stgcn_net.Model(
        arch=model.arch,
        adjacency=np.ascontiguousarray(model.adjacency[:, perm][:, :, perm]),
        blocks=model.blocks,
        classifier_w=model.classifier_w,
        classifier_b=model.classifier_b,
        dtype=model.dtype,
    )
    perm_err = float(np.max(np.abs(forward(model, x) - forward(permuted, x[:, perm, :]))))

    # (b) mesh translation leaves features bit-identical
    mesh = synth_mesh(grid=12, seed=61)
    pts = np.random.default_rng(61).uniform(size=(10, 2))
    lms = lift_landmarks(mesh, pts)
    base_tensor = build_sequence_tensor([(mesh, lms)], 6)
    shift = np.array([4.0, -2.0, 8.0])
    moved = TexturedMesh.from_arrays(mesh.vertices + shift, mesh.faces, mesh.colors, mesh.uv)
    moved_tensor = build_sequence_tensor([(moved, lift_landmarks(moved, pts))], 6)
    translation_exact = np.array_equal(base_tensor.values, moved_tensor.values)

    # (c) fixed-seed bit-identical 3-epoch training trajectory
    data_cfg = SynthConfig(n_identities=2, emotions=(0,), T=4, k=4, grid=8, lm_grid=2, seed=62)
    samples = build_dataset(data_cfg).samples
    lms0 = build_dataset(data_cfg).landmarks
    graph = st_graph.build_spatial_edges(lms0, "knn", knn_m=2)
    norm = normalize_adjacency(graph, partition(graph, "distance"))
    data = [(s.tensor.values, s.identity) for s in samples]

    def run():
        model = default_model(norm, data[0][0].shape[0], 2, seed=62)
        hist = train_model(model, data, epochs=3, base_lr=0.01, momentum=0.95,
                           weight_decay=1e-4, decay_epochs=(), gamma=0.1,
                           batch_size=2, seed=62)
        return [h.loss for h in hist], [a.copy() for _, a in model.parameters()]

    losses1, params1 = run()
    losses2, params2 = run()
    traj_identical = losses1 == losses2 and all(
        np.array_equal(a, b) for a, b in zip(params1, params2)
    )

    ok = perm_err <= 1e-5 and translation_exact and traj_identical
    report(6, "invariance suite", ok,
           f"perm err {perm_err:.2e}, translation bit-exact={translation_exact}, "
           f"trajectory bit-identical={traj_identical}")


@pytest.fixture(scope="module")
def overfit_run():
    cfg = RunConfig()
    t0 = time.perf_counter()
    data_cfg = SynthConfig(n_identities=2, emotions=(0,), T=24, seed=cfg.seed)
    built = build_dataset(data_cfg)
    graph = st_graph.build_spatial_edges(built.landmarks, cfg.graph.strategy, knn_m=cfg.graph.knn_m)
    norm = normalize_adjacency(graph, partition(graph, cfg.graph.partition))
    data = [(s.tensor.values, s.identity) for s in built.samples]
    model = default_model(norm, data[0][0].shape[0], 2, seed=cfg.seed)
    hist = train_model(
        model, data, epochs=30, base_lr=cfg.optim.base_lr, momentum=cfg.optim.momentum,
        weight_decay=cfg.optim.weight_decay, decay_epochs=cfg.optim.decay_epochs,
        gamma=cfg.optim.gamma, batch_size=cfg.train.batch_size, seed=cfg.seed,
    )
    return model, data, hist, time.perf_counter() - t0


def test_criterion_7_overfit_smoke(overfit_run):
    model, data, hist, elapsed = overfit_run
    final_acc = hist[-1].train_acc
    ok = final_acc == 1.0 and elapsed < 120.0
    report(7, "overfit smoke", ok, f"train acc {final_acc}, {elapsed:.0f}s")


def test_criterion_7b_eval_on_train_side(overfit_run):
    model, data, _, _ = overfit_run
    correct, total, _ = evaluate(model, data)
    report(7, "eval on train side after overfit", correct == total,
           f"{correct}/{total}")


def test_criterion_8_cross_emotion_benchmark():
    cfg = RunConfig()
    t0 = time.perf_counter()
    built = build_dataset(SynthConfig(seed=cfg.seed))  # 10 identities x 6 emotions
    train_side, test_side = cross_emotion_split(built.samples, cfg.train.train_emotions)
    graph = st_graph.build_spatial_edges(built.landmarks, cfg.graph.strategy, knn_m=cfg.graph.knn_m)
    norm = normalize_adjacency(graph, partition(graph, cfg.graph.partition))
    classes = {ident: i for i, ident in enumerate(sorted({s.identity for s in built.samples}))}
    train_data = [(s.tensor.values, classes[s.identity]) for s in train_side]
    test_data = [(s.tensor.values, classes[s.identity]) for s in test_side]
    model = default_model(norm, train_data[0][0].shape[0], len(classes), seed=cfg.seed)
    train_model(
        model, train_data, epochs=60, base_lr=cfg.optim.base_lr, momentum=cfg.optim.momentum,
        weight_decay=cfg.optim.weight_decay, decay_epochs=cfg.optim.decay_epochs,
        gamma=cfg.optim.gamma, batch_size=cfg.train.batch_size, seed=cfg.seed,
    )
    correct, total, _ = evaluate(model, test_data)
    elapsed = time.perf_counter() - t0
    acc = correct / total
    ok = acc >= 0.90 and elapsed < 600.0
    report(8, "synthetic cross-emotion benchmark", ok,
           f"test accuracy {correct}/{total}={acc:.3f}, {elapsed:.0f}s")


def test_criterion_9_round_trips(tmp_path):
    failures = []

    mesh = synth_mesh(grid=8, seed=91)  # canonical-domain geometry and colors
    for fmt, name in (("ply", "a.ply"), ("ply-binary", "b.ply")):
        p = tmp_path / name
        write_mesh(mesh, p, fmt=fmt)
        loaded = load_mesh(p)
        same = (
            np.array_equal(loaded.vertices, mesh.vertices)
            and np.array_equal(loaded.faces, mesh.faces)
            and np.array_equal(loaded.colors, mesh.colors)
            and np.array_equal(loaded.uv, mesh.uv)
        )
        p2 = tmp_path / ("2" + name)
        write_mesh(loaded, p2, fmt=fmt)
        if not (same and p.read_bytes() == p2.read_bytes()):
            failures.append(fmt)

    obj_mesh = TexturedMesh.from_arrays(
        mesh.vertices, mesh.faces, np.full((mesh.n_vertices, 3), 0.25), mesh.uv
    )
    p = tmp_path / "a.obj"
    write_mesh(obj_mesh, p, fmt="obj")
    loaded = load_mesh(p)
    p2 = tmp_path / "b.obj"
    write_mesh(loaded, p2, fmt="obj")
    if not (
        np.array_equal(loaded.vertices, obj_mesh.vertices)
        and np.array_equal(loaded.colors, obj_mesh.colors)
        and np.array_equal(loaded.uv, obj_mesh.uv)
        and p.read_bytes() == p2.read_bytes()
    ):
        failures.append("obj")

    lms = lift_landmarks(mesh, np.random.default_rng(91).uniform(size=(6, 2)))
    tensor = build_sequence_tensor([(mesh, lms)] * 3, 4)
    tp = tmp_path / "t.fgt"
    save_tensor(tensor, tp)
    lt = load_tensor(tp)
    tp2 = tmp_path / "t2.fgt"
    save_tensor(lt, tp2)
    if not (np.array_equal(lt.values, tensor.values) and tp.read_bytes() == tp2.read_bytes()):
        failures.append("fgt1")

    graph = st_graph.build_spatial_edges(lms, "knn", knn_m=2)
    labels = partition(graph, "distance")
    gp = tmp_path / "g.fgg"
    save_graph(graph, labels, gp)
    g2, l2 = load_graph(gp)
    gp2 = tmp_path / "g2.fgg"
    save_graph(g2, l2, gp2)
    if not (
        np.array_equal(graph.adjacency, g2.adjacency)
        and np.array_equal(labels.labels, l2.labels)
        and gp.read_bytes() == gp2.read_bytes()
    ):
        failures.append("fgg1")

    norm = normalize_adjacency(graph, labels)
    model = default_model(norm, 24, 3, seed=91)
    cp = tmp_path / "m.fgc"
    save_checkpoint(cp, model, {"k": 4, "seed": 91, "epoch": 1})
    m2, meta = load_checkpoint(cp)
    cp2 = tmp_path / "m2.fgc"
    save_checkpoint(cp2, m2, meta)
    params_equal = all(
        np.array_equal(a, b) for (_, a), (_, b) in zip(model.parameters(), m2.parameters())
    )
    if not (params_equal and cp.read_bytes() == cp2.read_bytes()):
        failures.append("fgc1")

    report(9, "file-format round trips", not failures, f"failures: {failures or 'none'}")
