"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured values (run with -s to see them live)."""

import itertools
import math
import time
from dataclasses import replace

import numpy as np

from beamtrain.array_model import (
    ArrayConfig,
    dft_codebook,
    project_uniform,
    sidelobe_level,
    steering_vector,
    superpose_beams,
)
from beamtrain.channel import (
    TOY_LOS_PAIR,
    ChannelConfig,
    cascade_gains,
    derive_seed,
    sample_channel,
    toy_channel,
    toy_codebooks,
)
from beamtrain.experiment import ExperimentConfig
from beamtrain.harness import power_var_campaign, quant_sweep_campaign, write_csv
from beamtrain.protocols import (
    ProtocolConfig,
    Scheme,
    run,
    sector_trap_channel,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_toy_channel_exactness():
    start = time.perf_counter()
    tx_cb, rx_cb = toy_codebooks()
    ch = toy_channel(0.5)
    coded = run(
        ProtocolConfig(tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=Scheme.EXHAUSTIVE_BEAMCODING),
        ch,
        seed=0,
    )
    r = coded.correlation
    # beam pairs are reported zero-based; the strong pair (1, 2) is beam
    # pair (2, 3) when counting beams from one
    checks = [
        abs(r[1, 2] - 2.0) < 1e-9,
        abs(r[0, 3] - 1.0) < 1e-9,
        coded.best_pair == TOY_LOS_PAIR,
        coded.packets_sent == 4,
    ]
    for scheme in (Scheme.FEEDBACK_INPACKET, Scheme.FEEDBACK_BEAMCODING):
        fb = run(
            ProtocolConfig(tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=scheme), ch, seed=0
        )
        checks += [fb.packets_sent == 2, fb.best_pair == TOY_LOS_PAIR]
    elapsed = time.perf_counter() - start
    report(
        1,
        all(checks) and elapsed < 1.0,
        f"r[1,2]={r[1, 2].real:.12f}, r[0,3]={r[0, 3].real:.12f}, best={coded.best_pair}, "
        f"packets={coded.packets_sent}, feedback=2 packets, {elapsed:.2f}s",
    )


def test_criterion_2_power_flatness():
    start = time.perf_counter()
    cb = dft_codebook(ArrayConfig(16))
    worst = 0.0
    for k in (2, 4, 8):
        beams = cb.matrix[:: 16 // k]
        for signs in itertools.product((1, -1), repeat=k):
            energy = float(np.sum(np.abs(superpose_beams(beams, list(signs))) ** 2))
            worst = max(worst, abs(energy - 1.0))
    rng = np.random.default_rng(2024)
    matrix = cb.matrix
    signs = rng.choice([-1.0, 1.0], size=(10_000, 16))
    weights = (signs @ matrix) / 4.0
    energies = np.sum(np.abs(weights) ** 2, axis=1)
    worst = max(worst, float(np.abs(energies - 1.0).max()))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst < 1e-12 and elapsed < 10.0,
        f"max ||w|^2 - 1| = {worst:.2e} over K in (2,4,8) exhaustive and 1e4 random "
        f"rows at K=16, {elapsed:.1f}s",
    )


def test_criterion_3_power_ratio_separation():
    start = time.perf_counter()
    exp = ExperimentConfig(runs=1000, master_seed=1)
    _, gamma_rows, _, _ = power_var_campaign(exp)
    cells: dict = {}
    for row in gamma_rows:
        cells.setdefault((row[1], row[2], row[3]), []).append(row[7])

    coded_nlos = [
        np.array(cells[("beamcoding", "nlos", k)]) for k in exp.beams_per_packet
    ]
    per_cell_cdf1 = [float((v <= 1.0).mean()) for v in coded_nlos]
    pooled = np.concatenate(coded_nlos)
    pooled_cdf1 = float((pooled <= 1.0).mean())

    ad_nlos16 = np.array(cells[("80211ad", "nlos", 16)])
    frac_over_2 = float((ad_nlos16 > 2.0).mean())
    ad_los16 = np.array(cells[("80211ad", "los", 16)])
    max_gamma = float(ad_los16.max())

    coded_los = np.concatenate(
        [np.array(cells[("beamcoding", "los", k)]) for k in exp.beams_per_packet]
    )
    coded_los_max = float(coded_los.max())
    coded_los_under_2 = float((coded_los <= 2.0).mean())

    elapsed = time.perf_counter() - start
    ok = (
        pooled_cdf1 >= 0.99
        and min(per_cell_cdf1) >= 0.99
        and frac_over_2 >= 0.05
        and max_gamma >= 8.0
        and coded_los_max <= 2.5
        and coded_los_under_2 >= 0.95
        and elapsed < 300.0
    )
    report(
        3,
        ok,
        f"coded NLOS CDF(1.0): pooled={pooled_cdf1:.4f}, per-cell min={min(per_cell_cdf1):.4f}; "
        f"standard NLOS@16 P(gamma>2)={frac_over_2:.3f}; standard LOS@16 max gamma="
        f"{max_gamma:.1f}; coded LOS max {coded_los_max:.2f} with "
        f"{100 * coded_los_under_2:.1f}% <= 2; {elapsed:.0f}s",
    )


def test_criterion_4_sidelobe_levels():
    start = time.perf_counter()
    cfg = ArrayConfig(16)
    single = sidelobe_level(steering_vector(cfg, 90.0), cfg)
    v1 = steering_vector(cfg, math.degrees(math.acos(0.375)))
    v2 = steering_vector(cfg, math.degrees(math.acos(0.125)))
    assert abs(np.vdot(v2, v1)) <= 1e-9
    double = sidelobe_level(project_uniform(superpose_beams([v1, v2], [1, 1])), cfg)
    elapsed = time.perf_counter() - start
    ok = abs(single - (-13.2)) <= 0.5 and abs(double - (-9.0)) <= 1.0 and elapsed < 1.0
    report(
        4,
        ok,
        f"single-beam sidelobe {single:.2f} dB (want -13.2 +/- 0.5), two-beam phase-only "
        f"{double:.2f} dB (want -9 +/- 1), {elapsed:.2f}s",
    )


def test_criterion_5_noiseless_oracle_equivalence():
    start = time.perf_counter()
    cb = dft_codebook(ArrayConfig(16))
    schemes = (Scheme.EXHAUSTIVE_PBP, Scheme.EXHAUSTIVE_BEAMCODING)
    cfgs = [ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=s) for s in schemes]
    ch_cfg = ChannelConfig()
    agreements = 0
    for i in range(500):
        ch = sample_channel(ch_cfg, derive_seed(11, i))
        pairs = [run(c, ch, i).best_pair for c in cfgs]
        agreements += pairs[0] == pairs[1]
    elapsed = time.perf_counter() - start
    report(
        5,
        agreements == 500 and elapsed < 120.0,
        f"coded argmax equals exhaustive argmax on {agreements}/500 noiseless channels, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_quantization_convergence():
    start = time.perf_counter()
    exp = ExperimentConfig(
        runs=1000, master_seed=1, environments=("nlos",), quant_bits=(2, 3, 4)
    )
    _, rows = quant_sweep_campaign(exp)
    values = {(r[2], r[3]): r[5] for r in rows}
    nbf = values[("3", "nbf")]
    gap = {b: abs(values[(b, "beamcoding")] - nbf) for b in ("2", "3", "4")}
    elapsed = time.perf_counter() - start
    ok = gap["3"] <= 0.1 and gap["4"] <= 0.1 and gap["2"] <= 1.0 and elapsed < 600.0
    report(
        6,
        ok,
        f"NLOS aggregate-SNR gap to baseline: 3-bit {gap['3']:.4f} dB, 4-bit "
        f"{gap['4']:.4f} dB (want <= 0.1), 2-bit {gap['2']:.3f} dB (want <= 1), {elapsed:.0f}s",
    )


def test_criterion_7_overhead_arithmetic():
    from beamtrain.packets import PER_BEAM_BITS_80211AD, PER_BEAM_BITS_BEAM_CODING, training_bits

    saving = PER_BEAM_BITS_80211AD - PER_BEAM_BITS_BEAM_CODING
    ok = (
        PER_BEAM_BITS_80211AD == 4864
        and PER_BEAM_BITS_BEAM_CODING == 1024
        and saving == 3840
        and training_bits("80211ad", 16) == 77824
        and training_bits("beamcoding", 16) == 16384
    )
    report(
        7,
        ok,
        "per-beam 4864 vs 1024 bits, saving 3840 (reported elsewhere as about 4000); "
        "16-beam totals 77824 vs 16384",
    )


def test_criterion_8_determinism(tmp_path):
    exp = ExperimentConfig(
        runs=2, beams_per_packet=(4,), quant_bits=(2,), environments=("nlos",)
    )
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        g_header, g_rows, c_header, c_rows = power_var_campaign(exp)
        q_header, q_rows = quant_sweep_campaign(exp)
        paths = [
            write_csv(out / "power_var_gamma.csv", g_header, g_rows),
            write_csv(out / "power_var_cdf.csv", c_header, c_rows),
            write_csv(out / "quant_sweep.csv", q_header, q_rows),
        ]
        digests.append(tuple(p.read_bytes() for p in paths))
    changed = power_var_campaign(replace(exp, master_seed=99))
    ok = digests[0] == digests[1] and changed[1] != []
    report(8, ok, "re-running identical configs produced byte-identical CSV files")


def test_criterion_9_multilevel_nlos_failure():
    cb = dft_codebook(ArrayConfig(16))
    ch = sector_trap_channel(cb, cb)

    def gain_db(pair):
        tx_w, rx_w = cb.matrix[pair[0]], cb.matrix[pair[1]]
        taps = cascade_gains(tx_w[None], rx_w[None], ch, cb.cfg, cb.cfg)[:, 0, 0]
        return 10 * math.log10(float(np.sum(np.abs(taps) ** 2)))

    mk = lambda s: ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=s)
    exhaustive = run(mk(Scheme.EXHAUSTIVE_PBP), ch, 0)
    multilevel = run(mk(Scheme.MULTILEVEL_PBP), ch, 0)
    coded = run(mk(Scheme.EXHAUSTIVE_BEAMCODING), ch, 0)
    gap = gain_db(exhaustive.best_pair) - gain_db(multilevel.best_pair)
    ok = gap >= 3.0 and coded.best_pair == exhaustive.best_pair
    report(
        9,
        ok,
        f"two-level search lands {gap:.2f} dB below exhaustive (want >= 3); coded "
        f"training matches exhaustive at {exhaustive.best_pair}",
    )
