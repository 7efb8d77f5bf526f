"""Acceptance gate: every release-blocking criterion, one test each.

Each test prints one `ACCEPTANCE n: PASS — ...` line (run with -s to see
them live). The quantitative criteria (7-9) train real models, once each,
with GAIN's generator loss. The full module is several minutes of CPU,
dominated by criterion 7's ten full-budget training runs.
"""

import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from cgain.data import corrupt_mcar, build_dataset, Dataset
from cgain.datasets import credit_like, letter_like, load_breast_cancer_dataset, spambase_like
from cgain.evaluate import run_benchmark, run_method
from cgain.imputer import (TrainConfig, build_model, discriminator_forward, generate,
                           generator_forward, hint_from_b, impute, loss_discriminator,
                           loss_generator, sample_hint_b, train)
from cgain.nn import make_rng, spawn_rng, spawn_seed, uniform
from conftest import toy_dataset
from gradcheck import LOSS_FORMS, check_net_loss_gradients
from oracles import scalar_loss_d, scalar_loss_g


def ok(criterion: int, message: str, capsys=None) -> None:
    """One visible pass line per criterion, even under pytest capture."""
    scope = capsys.disabled() if capsys is not None else nullcontext()
    with scope:
        print(f"\nACCEPTANCE {criterion}: PASS — {message}")


# --------------------------------------------------------------------------
# 1. gradient fidelity: analytic vs central differences, 20 seeded configs
# --------------------------------------------------------------------------

def test_acceptance_1_gradient_fidelity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        width = int(make_rng(1000 + seed).integers(8, 65))
        form = LOSS_FORMS[seed % len(LOSS_FORMS)]
        err = check_net_loss_gradients(seed=seed, width=width, loss_form=form)
        worst = max(worst, err)
        assert err < 1e-4, f"seed {seed} width {width} form {form}: rel err {err:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    ok(1, f"20/20 configs within 1e-4 (worst {worst:.2e}) in {elapsed:.1f}s", capsys)


# --------------------------------------------------------------------------
# 2. completed-data exactness: observed cells pass through bit-exactly
# --------------------------------------------------------------------------

def test_acceptance_2_merge_exactness(capsys):
    rng = make_rng(202)
    for trial in range(1000):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        cfg = TrainConfig(hidden_multiplier=1, conditional=bool(trial % 2), seed=trial)
        model = build_model(d, m, ["continuous"] * d, cfg, make_rng(trial))
        mask = (rng.random((n, d)) < rng.uniform(0.1, 0.9)).astype(float)
        x_t = rng.uniform(0.0, 1.0, (n, d)) * mask
        y = np.zeros((n, m))
        y[np.arange(n), rng.integers(0, m, n)] = 1.0
        x_bar, x_hat = generate(model, x_t, mask, y, rng)
        obs, miss = mask == 1, mask == 0
        assert np.array_equal(x_hat[obs], x_t[obs])
        assert np.array_equal(x_hat[miss], x_bar[miss])
    ok(2, "1000 random (model, batch, mask) triples: observed cells bit-exact, "
          "missing cells taken from the generator", capsys)


# --------------------------------------------------------------------------
# 3. hint law: one 0.5 per row, mask elsewhere, uniform column choice
# --------------------------------------------------------------------------

def test_acceptance_3_hint_law(capsys):
    rng = make_rng(303)
    d = 5
    mask = (rng.random((100_000, d)) < 0.7).astype(float)
    hint = hint_from_b(sample_hint_b(mask, rng), mask)
    halves = hint == 0.5
    assert np.array_equal(halves.sum(axis=1), np.ones(100_000))
    assert np.array_equal(hint[~halves], mask[~halves])
    freq = halves.mean(axis=0)
    assert np.all(np.abs(freq - 1.0 / d) <= 0.01), freq
    ok(3, f"100000 hint rows: exactly one 0.5 per row, per-column frequency "
          f"{freq.min():.4f}..{freq.max():.4f} within 0.2±0.01", capsys)


# --------------------------------------------------------------------------
# 4. loss-oracle equivalence on 1000 random small batches
# --------------------------------------------------------------------------

def test_acceptance_4_loss_oracle_equivalence(capsys):
    rng = make_rng(404)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 7))
        m_hat = rng.uniform(1e-3, 1.0 - 1e-3, (n, d))
        mask = (rng.random((n, d)) < 0.6).astype(float)
        b = sample_hint_b(mask, rng)
        x_bar = rng.uniform(1e-3, 1.0 - 1e-3, (n, d))
        x_t = rng.uniform(0.0, 1.0, (n, d)) * mask
        kinds = ["binary" if v < 0.3 else "continuous" for v in rng.random(d)]
        alpha = float(rng.uniform(0.5, 150.0))
        dd = abs(loss_discriminator(m_hat, mask, b)
                 - scalar_loss_d(m_hat.tolist(), mask.tolist(), b.tolist()))
        gg = abs(loss_generator(m_hat, mask, b, x_bar, x_t, kinds, alpha)
                 - scalar_loss_g(m_hat.tolist(), mask.tolist(), b.tolist(),
                                 x_bar.tolist(), x_t.tolist(), kinds, alpha))
        worst = max(worst, dd, gg)
        assert dd <= 1e-12 and gg <= 1e-12
    ok(4, f"1000 random batches: vectorized losses equal scalar oracles "
          f"(worst abs diff {worst:.2e})", capsys)


# --------------------------------------------------------------------------
# 5. unconditional degeneracy
# --------------------------------------------------------------------------

def test_acceptance_5_unconditional_degeneracy(capsys):
    ds = toy_dataset(n=50, d=4, seed=505)
    inc = corrupt_mcar(ds, 0.3, make_rng(506))
    cfg = TrainConfig(iterations=60, batch_size=16)

    # (a) the "gain" method is bit-identical to running with conditioning off
    seed = spawn_seed(507, 3, 0, 0, 0)
    via_harness = run_method("gain", inc, inc, cfg, seed, spawn_rng(507, 5, 0, 0, 0))
    model, _ = train(inc, replace(cfg, conditional=False, seed=seed))
    direct = impute(model, inc, spawn_rng(507, 5, 0, 0, 0)).features
    assert np.array_equal(via_harness, direct)

    # (b) single-class conditioning differs from the unconditional net only
    # by the constant label column: zero those weights, outputs match bit-wise
    rng = make_rng(508)
    n, d = 30, 4
    degenerate = Dataset(features=rng.uniform(0.0, 1.0, (n, d)), labels=np.ones((n, 1)),
                         schema=ds.schema, class_names=["only"], name="degenerate")
    dinc = corrupt_mcar(degenerate, 0.3, make_rng(509))
    gain_model, _ = train(dinc, replace(cfg, conditional=False, seed=510))
    cond_model = build_model(d, 1, degenerate.column_kinds,
                             replace(cfg, conditional=True, seed=510), make_rng(510))
    for net_c, net_g in ((cond_model.generator, gain_model.generator),
                         (cond_model.discriminator, gain_model.discriminator)):
        net_c.w1[:net_g.w1.shape[0], :] = net_g.w1
        net_c.w1[net_g.w1.shape[0]:, :] = 0.0
        net_c.b1[:] = net_g.b1
        net_c.w2[:] = net_g.w2
        net_c.b2[:] = net_g.b2
        net_c.w3[:] = net_g.w3
        net_c.b3[:] = net_g.b3
    x_t = dinc.dataset.features
    z = uniform(make_rng(511), 0.0, 0.01, x_t.shape)
    bar_c, hat_c, _ = generator_forward(cond_model, x_t, dinc.mask, degenerate.labels, z)
    bar_g, hat_g, _ = generator_forward(gain_model, x_t, dinc.mask, degenerate.labels, z)
    assert np.array_equal(bar_c, bar_g) and np.array_equal(hat_c, hat_g)
    hint = hint_from_b(sample_hint_b(dinc.mask, make_rng(512)), dinc.mask)
    assert np.array_equal(discriminator_forward(cond_model, hat_c, hint, degenerate.labels)[0],
                          discriminator_forward(gain_model, hat_g, hint, degenerate.labels)[0])
    ok(5, "conditioning off is bit-identical to the unconditional pipeline; "
          "single-class conditioning equals it after label-weight ablation", capsys)


# --------------------------------------------------------------------------
# 6. determinism: identical root seed -> byte-identical report CSVs
# --------------------------------------------------------------------------

def test_acceptance_6_report_determinism(tmp_path, capsys):
    from cgain.cli import main
    import csv as csvmod
    data = tmp_path / "toy.csv"
    rng = np.random.default_rng(606)
    with open(data, "w", newline="") as fh:
        writer = csvmod.writer(fh)
        writer.writerow(["a", "b", "c", "y"])
        for i in range(60):
            writer.writerow([f"{v:.6f}" for v in rng.uniform(0, 5, 3)] + [str(i % 2)])
    argv = ["benchmark", "--data", str(data), "--label-col", "y",
            "--rate", "0.2", "--reps", "2", "--iters", "120", "--batch", "16",
            "--seed", "607", "--jobs", "1"]
    assert main(argv + ["--out", str(tmp_path / "runA")]) == 0
    assert main(argv + ["--out", str(tmp_path / "runB")]) == 0
    a = (tmp_path / "runA.report.csv").read_bytes()
    b = (tmp_path / "runB.report.csv").read_bytes()
    assert a == b
    ok(6, f"two benchmark runs with the same root seed wrote byte-identical "
          f"report CSVs ({len(a)} bytes, all four methods)", capsys)


# --------------------------------------------------------------------------
# 7. breast cancer quality at default config
# --------------------------------------------------------------------------

def test_acceptance_7_breast_cancer_quality(capsys):
    ds = load_breast_cancer_dataset()
    t0 = time.perf_counter()

    report = run_benchmark(ds, ["cgain", "mean"], [0.2], repetitions=10,
                           root_seed=2026, train_config=TrainConfig())   # full default budget
    cells = {c.method: c for c in report.cells}
    for cell in cells.values():
        assert cell.error is None, cell.error
    cgain_mean = float(np.mean([r.overall for r in cells["cgain"].reps]))
    mean_mean = float(np.mean([r.overall for r in cells["mean"].reps]))
    detail = f"cgain {cgain_mean:.4f} vs mean-impute {mean_mean:.4f}"
    assert cgain_mean <= 0.12 and cgain_mean < mean_mean, detail
    elapsed = time.perf_counter() - t0
    ok(7, f"breast cancer 20% missing, 10 reps, default config: {detail}, {elapsed:.0f}s", capsys)


# --------------------------------------------------------------------------
# 8. paired ordering on the spambase-shaped table
# --------------------------------------------------------------------------

def test_acceptance_8_spambase_ordering(capsys):
    ds = spambase_like()
    t0 = time.perf_counter()

    report = run_benchmark(ds, ["cgain", "gain"], [0.2], repetitions=3,
                           root_seed=2028, train_config=TrainConfig(iterations=2000))
    cells = {c.method: c for c in report.cells}
    pairs = [(c.overall, g.overall)
             for c, g in zip(cells["cgain"].reps, cells["gain"].reps)]
    wins = sum(c < g for c, g in pairs)
    per_rep = "; ".join(f"rep{i}: {c:.4f} vs {g:.4f}" for i, (c, g) in enumerate(pairs))
    detail = f"{wins}/3 paired wins ({per_rep})"
    assert wins >= 2, detail
    elapsed = time.perf_counter() - t0
    ok(8, f"spambase-shaped 4601x57, 20% missing: {detail}, {elapsed:.0f}s", capsys)


# --------------------------------------------------------------------------
# 9. minority-class ordering under engineered imbalance
# --------------------------------------------------------------------------

def test_acceptance_9_imbalance_minority_ordering(capsys):
    ds = credit_like()
    t0 = time.perf_counter()

    report = run_benchmark(ds, ["cgain", "gain"], [0.2], repetitions=3,
                           root_seed=2029, train_config=TrainConfig(iterations=600),
                           minority_fractions=[0.10], minority_class=1)
    cells = {c.method: c for c in report.cells}
    pairs = [(c.per_class["1"], g.per_class["1"])
             for c, g in zip(cells["cgain"].reps, cells["gain"].reps)]
    wins = sum(c < g for c, g in pairs)
    per_rep = "; ".join(f"rep{i}: {c:.4f} vs {g:.4f}" for i, (c, g) in enumerate(pairs))
    detail = f"{wins}/3 minority-class paired wins ({per_rep})"
    assert wins >= 2, detail
    elapsed = time.perf_counter() - t0
    ok(9, f"credit-shaped table, 10% minority, 20% missing: {detail}, {elapsed:.0f}s", capsys)


# --------------------------------------------------------------------------
# 10. timing ordering: conditioning costs time, but less than 2x
# --------------------------------------------------------------------------

def test_acceptance_10_timing_ordering(capsys):
    """The repetitions run in ABBA order (cgain, gain, gain, cgain, cgain,
    gain) with the benchmark harness's seeds, so a drift in machine speed
    during the test weighs on both methods alike."""
    ds = letter_like()
    cfg = TrainConfig(iterations=1200)
    seconds = {"cgain": [], "gain": []}
    for rep, order in enumerate([("cgain", "gain"), ("gain", "cgain"), ("cgain", "gain")]):
        inc = corrupt_mcar(ds, 0.2, spawn_rng(31, 1, 0, rep))
        for method in order:
            method_idx = ("cgain", "gain").index(method)
            t0 = time.perf_counter()
            run_method(method, inc, inc, cfg, spawn_seed(31, 3, 0, rep, method_idx),
                       spawn_rng(31, 5, 0, rep, method_idx))
            seconds[method].append(time.perf_counter() - t0)
    cgain_t = sum(seconds["cgain"]) / 3
    gain_t = sum(seconds["gain"]) / 3
    ratio = cgain_t / gain_t
    assert cgain_t > gain_t, f"cgain {cgain_t:.2f}s not slower than gain {gain_t:.2f}s"
    assert ratio < 2.0, f"timing ratio {ratio:.2f} exceeds 2x"
    ok(10, f"letter-shaped 26-class table: cgain {cgain_t:.2f}s/rep > "
           f"gain {gain_t:.2f}s/rep, ratio {ratio:.2f} < 2", capsys)
