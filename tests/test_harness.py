import contextlib
import io
import logging
import math
import tempfile
import time
import weakref
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain import cli, harness
from beamtrain.array_model import ArrayConfig, dft_codebook
from beamtrain.beam_coding import CE_GOLAY
from beamtrain.channel import ChannelConfig, derive_seed, sample_channel
from beamtrain.experiment import ExperimentConfig, parse_config, serialize_config
from beamtrain.harness import (
    CDF_HEADER,
    GAMMA_HEADER,
    CsvBlock,
    PowerVarResult,
    _tap_rows,
    overhead_rows,
    pattern_rows,
    power_var_campaign,
    quant_sweep_campaign,
    train_once,
    write_csv,
)
from beamtrain.packets import LAYOUTS
from beamtrain.protocols import Scheme
from oracles import encode_ce_field, power_trace, preamble_samples


def block_gammas(result):
    """Each block of a power-var result's plan, in the plan's order, with
    its (runs, F) gammas: one environment's entry slice of every run."""
    return [(b, result.gammas[b.env_index][:, b.entries]) for b in result.plan.blocks]


def gamma_rows(result):
    """The gamma CSV rows of a power-var result as tuples, in block order."""
    return [
        (b.label, b.scheme, b.environment, b.beams_per_packet, i, p, f, g)
        for b, gammas in block_gammas(result)
        for i, run_gammas in enumerate(gammas.tolist())
        for p, f, g in zip(b.packets, b.fields, run_gammas)
    ]


def cdf_rows(result):
    """The CDF CSV rows of a power-var result as tuples, in block order:
    each distinct gamma with the fraction of its block's gammas at or below
    it."""
    rows = []
    for b, gammas in block_gammas(result):
        values, counts = np.unique(gammas, return_counts=True)
        fractions = np.cumsum(counts) / gammas.size
        label = (b.label, b.scheme, b.environment, b.beams_per_packet)
        rows += [(*label, v, f) for v, f in zip(values.tolist(), fractions.tolist())]
    return rows


def power_var_plan(exp):
    """The plan of a power-var config."""
    return harness._power_var_plan(
        exp.tx_antennas, exp.spacing, exp.beams_per_packet, exp.schemes, exp.environments, exp.runs
    )


def fmt_cell(value) -> str:
    """One CSV cell as the writer must print it: floats to 12 significant
    digits, integers (bool and numpy scalars included) in full, anything
    else as its str."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def joined_csv(header, rows) -> bytes:
    """The bytes of a CSV of ``rows``, joined cell by cell with fmt_cell."""
    lines = [",".join(header)] + [",".join(map(fmt_cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def small_experiment(**kwargs):
    base = ExperimentConfig(
        runs=3,
        beams_per_packet=(2, 4),
        quant_bits=(2, None),
        environments=("nlos",),
    )
    return replace(base, **kwargs)


BOTH_CAMPAIGNS = ("power-var", "quant-sweep")
# The subcommands that check the channel and link settings.
WITH_CHANNEL = (*BOTH_CAMPAIGNS, "train")
# The keys named when the link budget's noise-to-signal ratio is not a
# positive finite float.
NOISE_RATIO_KEYS = "link.tx_power_dbm, link.noise_figure_plus_impl_db"
# The keys named when a channel is longer than the CE sequence.
TAP_KEYS = "channel.max_excess_tap, channel.intra_cluster_tap_spread"

class TestOverheadRows:
    def test_exact_integers(self):
        header, block = overhead_rows([1, 16])
        table = {(r[0], r[1]): r for r in block.values}
        assert table[(1, "80211ad")][2] == 4864
        assert table[(1, "beamcoding")][2] == 1024
        assert table[(1, "beamcoding")][4] == 3840
        assert table[(16, "80211ad")][3] == 77824
        assert table[(16, "beamcoding")][3] == 16384
        assert table[(16, "beamcoding")][5] == 77824 - 16384

    def test_single_beam_saving_equals_per_beam(self):
        _, block = overhead_rows([1])
        coded = [r for r in block.values if r[1] == "beamcoding"][0]
        assert coded[4] == coded[5] == 3840


class TestPatternRows:
    def test_single_beam_peak_and_sidelobe(self):
        header, block = pattern_rows(num_antennas=16, angles_deg=[90.0])
        assert header == ["angle_deg", "gain_db"]
        rows = block.values
        angles = np.array([r[0] for r in rows])
        gains = np.array([r[1] for r in rows])
        assert angles[np.argmax(gains)] == pytest.approx(90.0, abs=0.1)
        # highest non-mainlobe local max sits near -13 dB
        inner = (gains[1:-1] >= gains[:-2]) & (gains[1:-1] >= gains[2:])
        peaks = gains[1:-1][inner]
        side = np.sort(peaks)[-2]
        assert side == pytest.approx(-13.2, abs=0.4)

    def test_quantized_coded_pattern_keeps_pointing_directions(self):
        import math

        beam_cos = (0.75, 0.25, -0.25, -0.75)
        angles = [math.degrees(math.acos(c)) for c in beam_cos]
        kwargs = dict(num_antennas=16, angles_deg=angles, signs=[1, -1, 1, -1])
        ref_rows = pattern_rows(**kwargs)[1].values
        quant_rows = pattern_rows(quant_bits=2, **kwargs)[1].values
        ref = np.array([r[1] for r in ref_rows])
        quant = np.array([r[1] for r in quant_rows])
        grid = np.array([r[0] for r in ref_rows])

        def peaks_of(gains):
            inner = (gains[1:-1] >= gains[:-2]) & (gains[1:-1] >= gains[2:])
            strong = gains[1:-1] > -3.0
            return grid[1:-1][inner & strong]

        for peak in peaks_of(ref):
            assert np.min(np.abs(peaks_of(quant) - peak)) <= 0.1 + 1e-9

    def test_rejects_zero_antennas(self):
        with pytest.raises(ValueError):
            pattern_rows(num_antennas=0, angles_deg=[90.0])

    def test_uniform_projection_flag(self):
        _, block = pattern_rows(num_antennas=16, angles_deg=[60.0, 90.0], uniform=True)
        assert max(r[1] for r in block.values) == pytest.approx(0.0, abs=1e-9)


class TestPowerVarCampaign:
    def test_rows_structure_and_sorting(self):
        exp = small_experiment()
        g_rows = gamma_rows(power_var_campaign(exp))
        assert GAMMA_HEADER[0] == "experiment"
        keys = [(r[0], r[4], r[5], r[6]) for r in g_rows]
        assert keys == sorted(keys)
        # every scheme/K cell present
        cells = {(r[1], r[3]) for r in g_rows}
        assert cells == {(s, k) for s in exp.schemes for k in (2, 4)}

    def test_cdf_rows_end_at_one(self):
        exp = small_experiment()
        c_rows = cdf_rows(power_var_campaign(exp))
        by_cell = {}
        for r in c_rows:
            by_cell.setdefault(r[0], []).append(r)
        for rows in by_cell.values():
            assert rows[-1][5] == pytest.approx(1.0)
            fracs = [r[5] for r in rows]
            assert fracs == sorted(fracs)

    def test_deterministic_under_master_seed(self):
        exp = small_experiment()
        first = gamma_rows(power_var_campaign(exp))
        second = gamma_rows(power_var_campaign(exp))
        assert first == second
        moved = gamma_rows(power_var_campaign(replace(exp, master_seed=2)))
        assert moved != first

    @pytest.mark.parametrize("environments", [("los", "nlos"), ("nlos", "los")])
    def test_rows_come_out_in_sorted_order(self, environments):
        # K = 3 and 7 leave uneven last packets, whose coded preambles are
        # shorter than those of the cell's other packets and share their
        # length with K = 2's, so the packets of a cell are numbered apart
        # in the plan while their rows stay in (packet, field) order.
        exp = ExperimentConfig(
            runs=3,
            beams_per_packet=(2, 3, 5, 7),
            environments=environments,
            channel=ChannelConfig(intra_cluster_tap_spread=4),
        )
        result = power_var_campaign(exp)
        g_rows, c_rows = gamma_rows(result), cdf_rows(result)
        assert len(g_rows) == 2 * 3 * len(result.plan.fields)
        assert g_rows == sorted(g_rows)
        assert g_rows == sorted(g_rows, key=itemgetter(0, 4, 5, 6))
        assert c_rows == sorted(c_rows)
        assert c_rows == sorted(c_rows, key=itemgetter(0, 4))


def campaign_channels(exp):
    """The channel behind each (environment, seed index) of a power-var run."""
    stream = derive_seed(exp.master_seed, harness._POWER_VAR_STREAM)
    return {
        (env, i): sample_channel(
            replace(exp.channel, los=(env == "los")),
            derive_seed(derive_seed(stream, env_idx), i),
        )
        for env_idx, env in enumerate(exp.environments)
        for i in range(exp.runs)
    }


class TestPowerVarOracle:
    """The campaign against the per-layout path on multi-tap channels."""

    exp = ExperimentConfig(
        runs=3,
        beams_per_packet=(1, 2, 4, 16),
        channel=ChannelConfig(intra_cluster_tap_spread=3),
    )

    @pytest.fixture(scope="class")
    def campaign(self):
        return gamma_rows(power_var_campaign(self.exp)), campaign_channels(self.exp)

    def test_gammas_match_per_layout_path(self, campaign):
        g_rows, channels = campaign
        assert any(ch.num_taps > 1 for ch in channels.values())
        cfg = ArrayConfig(self.exp.tx_antennas, self.exp.spacing)
        tx_cb = dft_codebook(cfg)
        rx_w, rx_cfg = np.array([1.0 + 0j]), ArrayConfig(1, self.exp.spacing)
        got = {(r[1], r[2], r[3], r[4], r[5], r[6]): r[7] for r in g_rows}
        want = {}
        for (env, i), ch in channels.items():
            for k in self.exp.beams_per_packet:
                for packet, group in enumerate(harness._beam_groups(len(tx_cb), k)):
                    beams = tx_cb.matrix[group]
                    for scheme, layout_of in LAYOUTS.items():
                        layout = layout_of(beams)
                        _, field_powers = power_trace(layout, ch, rx_w, cfg, rx_cfg)
                        samples = preamble_samples(layout, ch, rx_w, cfg, rx_cfg)
                        sigma = float(np.mean(np.abs(samples) ** 2))
                        gammas = field_powers / (3.0 * sigma)
                        for field, gamma in enumerate(gammas.tolist()):
                            want[(scheme, env, k, i, packet, field)] = gamma
        assert got.keys() == want.keys()
        for key, gamma in want.items():
            if key[2] == 1:
                assert got[key] == gamma, key
            else:
                assert got[key] == pytest.approx(gamma, rel=1e-12, abs=0.0), key

    def test_single_beam_gammas_follow_golay_identity(self, campaign):
        # With one beam the preamble rides the field's own weight, and Golay
        # complementarity makes sigma = L * P / (L + guard) for guard =
        # num_taps - 1, so every gamma is (L + guard) / (3 L).
        g_rows, channels = campaign
        length = CE_GOLAY.shape[1]
        single = [r for r in g_rows if r[3] == 1]
        assert len(single) == 2 * 16 * len(channels)
        for row in single:
            guard = channels[(row[2], row[4])].num_taps - 1
            assert row[7] == pytest.approx((length + guard) / (3 * length), rel=1e-12, abs=0.0)


class TestPowerVarPlan:
    """The per-channel arithmetic against one packet at a time."""

    @staticmethod
    def per_packet_gammas(plan, taps):
        guard = taps.shape[1] - 1
        powers = np.sum(np.abs(taps) ** 2, axis=1)
        sigmas = {
            r: np.mean(np.abs(encode_ce_field(taps[r], CE_GOLAY, guard)) ** 2)
            for r in plan.preamble_rows.tolist()
        }
        packet_sigmas = [
            np.mean(np.array([sigmas[r] for r in preamble]))
            for matrix in plan.preambles
            for preamble in matrix.tolist()
        ]
        return [
            powers[field] / (3.0 * packet_sigmas[packet])
            for field, packet in zip(plan.fields.tolist(), plan.packet_of.tolist())
        ]

    @pytest.mark.parametrize("beams_per_packet", [(1, 2, 4, 8, 16), (3, 5)])
    def test_grouped_gammas_equal_per_packet_bits(self, beams_per_packet):
        exp = ExperimentConfig(
            runs=3,
            beams_per_packet=beams_per_packet,
            channel=ChannelConfig(intra_cluster_tap_spread=3),
        )
        plan = power_var_plan(exp)
        assert max(p.shape[1] for p in plan.preambles) > 1
        rx_w, tx_cfg, rx_cfg = np.ones(1, dtype=complex), ArrayConfig(16), ArrayConfig(1)
        for ch in campaign_channels(exp).values():
            taps = _tap_rows(plan.weights, rx_w, ch, tx_cfg, rx_cfg)
            got = harness._channel_gammas(plan, taps)
            assert got.tolist() == self.per_packet_gammas(plan, taps)

    @pytest.mark.parametrize("num_taps", [1, 4])
    def test_zero_preamble_variance_rejected(self, num_taps):
        plan = power_var_plan(ExperimentConfig(beams_per_packet=(1, 4), runs=1))
        taps = np.zeros((len(plan.weights), num_taps), dtype=complex)
        with pytest.raises(ValueError, match="preamble has zero variance"):
            harness._channel_gammas(plan, taps)

    @pytest.mark.parametrize("beams_per_packet", [(1, 2, 4, 8, 16), (16, 3, 1, 5)])
    def test_cells_tile_the_gammas_in_config_order(self, beams_per_packet):
        schemes, environments = ("beamcoding", "80211ad"), ("nlos", "los")
        plan = harness._power_var_plan(16, 0.5, beams_per_packet, schemes, environments, 300)
        names = [b.label for b in plan.blocks]
        assert names == sorted(names)
        # Each environment's blocks, in entry order, are the cells in config
        # order, and they tile the entries of a run.
        for e, env in enumerate(environments):
            cells = [b for b in plan.blocks if b.env_index == e]
            cells.sort(key=lambda b: b.entries.start)
            assert {b.environment for b in cells} == {env}
            assert [(b.scheme, b.beams_per_packet) for b in cells] == [
                (s, k) for s in schemes for k in beams_per_packet
            ]
            stops = [0] + [b.entries.stop for b in cells]
            assert [b.entries.start for b in cells] == stops[:-1]
            assert stops[-1] == len(plan.fields) == len(plan.packet_of)
        # The chunks cut the blocks into runs of whole blocks, and at 300
        # runs there are several.
        assert sum(plan.chunks, ()) == plan.blocks and all(plan.chunks)
        assert len(plan.chunks) > 1
        packets = sum(len(p) for p in plan.preambles)
        assert sorted(set(plan.packet_of.tolist())) == list(range(packets))
        for b in plan.blocks:
            k, entries, labels, fields = b.beams_per_packet, b.entries, b.packets, b.fields
            assert len(labels) == len(fields) == entries.stop - entries.start
            # one plan packet per packet label, their fields numbered from 0
            pairs = set(zip(labels, plan.packet_of[entries].tolist()))
            assert len(pairs) == len(set(labels)) == len({p for _, p in pairs})
            assert fields == tuple(
                f for p in sorted(set(labels)) for f in range(labels.count(p))
            )
            if 16 % k == 0:
                # K beams per packet: 16 / K packets of K fields each, in order
                assert list(zip(labels, fields)) == [(p, f) for p in range(16 // k) for f in range(k)]
        arrays = [plan.weights, plan.preamble_rows, plan.fields, plan.packet_of, *plan.preambles]
        assert not any(a.flags.writeable for a in arrays)

    def test_plan_is_built_once_per_config_less_its_seed(self, monkeypatch):
        built = []
        for name, layout in LAYOUTS.items():
            counting = lambda beams, layout=layout: built.append(1) or layout(beams)
            monkeypatch.setitem(LAYOUTS, name, counting)
        exp = small_experiment(runs=1)
        harness._power_var_plan.cache_clear()
        try:
            power_var_campaign(exp)
            per_plan = len(built)
            assert per_plan > 0
            power_var_campaign(replace(exp, master_seed=2))
            assert len(built) == per_plan
            power_var_campaign(replace(exp, runs=2))
            assert len(built) == 2 * per_plan
        finally:
            harness._power_var_plan.cache_clear()


class TestCampaignLogging:
    def records(self, caplog, level):
        return [r.getMessage() for r in caplog.records if r.name == "beamtrain.harness" and r.levelno == level]

    def test_power_var_logs_start_end_and_environments(self, caplog):
        caplog.set_level(logging.DEBUG, logger="beamtrain.harness")
        exp = small_experiment(runs=2, environments=("los", "nlos"))
        result = power_var_campaign(exp)
        start, end = self.records(caplog, logging.INFO)
        assert start.startswith("power-var: 2 runs in los, nlos")
        head = f"power-var: 2 runs, 2 environments, {len(result.plan.blocks)} blocks of "
        assert end.startswith(f"{head}{len(gamma_rows(result))} gamma rows in ")
        assert end.endswith(" s")
        los, nlos = self.records(caplog, logging.DEBUG)
        assert los.startswith("power-var: los done in ") and nlos.startswith("power-var: nlos done in ")

    def test_quant_sweep_logs_start_end_and_environments(self, caplog):
        caplog.set_level(logging.DEBUG, logger="beamtrain.harness")
        _, block = quant_sweep_campaign(small_experiment(runs=1))
        start, end = self.records(caplog, logging.INFO)
        assert start.startswith("quant-sweep: 1 runs in nlos")
        assert end.startswith(f"quant-sweep: 1 runs, 1 environments, {len(block.values)} rows in ")
        (env,) = self.records(caplog, logging.DEBUG)
        assert env.startswith("quant-sweep: nlos done in ")

    def test_quant_sweep_logs_every_training_run(self, caplog):
        # The nbf baseline runs through protocols.run like the coded runs:
        # one DEBUG record per run and channel.
        caplog.set_level(logging.DEBUG, logger="beamtrain.protocols")
        quant_sweep_campaign(small_experiment(runs=3, environments=("los", "nlos")))
        runs = [r.getMessage() for r in caplog.records if r.name == "beamtrain.protocols"]
        baseline = [m for m in runs if m.startswith("exhaustive_pbp seed ")]
        coded = [m for m in runs if m.startswith("exhaustive_beamcoding seed ")]
        assert [m.split(":")[0] for m in baseline] == [
            f"exhaustive_pbp seed {i}" for _ in range(2) for i in range(3)
        ]
        assert len(coded) == 2 * 3 * 2
        assert len(runs) == len(baseline) + len(coded)

    def test_silent_at_default_level(self, caplog):
        caplog.set_level(logging.WARNING, logger="beamtrain")
        power_var_campaign(small_experiment(runs=1))
        quant_sweep_campaign(small_experiment(runs=1))
        assert not [r for r in caplog.records if r.name.startswith("beamtrain")]


class TestQuantSweepCampaign:
    def test_rows_and_baseline_equality_at_inf(self):
        exp = small_experiment()
        header, block = quant_sweep_campaign(exp)
        assert header[-1] == "snr_db"
        by_bits = {(r[2], r[3]): r[5] for r in block.values}
        assert by_bits[("inf", "beamcoding")] == pytest.approx(by_bits[("inf", "nbf")])
        # the unquantized baseline repeats across the bits axis
        assert by_bits[("2", "nbf")] == pytest.approx(by_bits[("inf", "nbf")])

    def test_one_realization_alive_at_a_time(self, monkeypatch):
        drawn = []

        def tracking_sample_channel(cfg, seed):
            assert not [ref for ref in drawn if ref() is not None], "a drawn channel is alive"
            ch = sample_channel(cfg, seed)
            drawn.append(weakref.ref(ch))
            return ch

        exp = small_experiment(environments=("los", "nlos"))
        want = quant_sweep_campaign(exp)
        monkeypatch.setattr(harness, "sample_channel", tracking_sample_channel)
        assert quant_sweep_campaign(exp) == want
        assert len(drawn) == 6


class TestTrainOnce:
    def test_toy_summary(self):
        exp = small_experiment()
        summary, (header, block) = train_once(exp, Scheme.EXHAUSTIVE_BEAMCODING, 0, toy=True)
        assert summary["best_pair"] == (1, 2)
        assert summary["packets_sent"] == 4
        assert summary["success"]
        assert block.values, "trace dump should not be empty"

    def test_sampled_channel_deterministic(self):
        exp = small_experiment()
        a, _ = train_once(exp, Scheme.EXHAUSTIVE_PBP, 5)
        b, _ = train_once(exp, Scheme.EXHAUSTIVE_PBP, 5)
        assert a == b


class TestWriteCsv:
    def test_header_and_formatting(self, tmp_path):
        block = CsvBlock("%d,%.12g\n", [(1, 0.5), (2, 1.0 / 3.0)])
        path = write_csv(tmp_path / "t.csv", ["a", "b"], [block])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,0.333333333333"

    def test_byte_identical_rewrite(self, tmp_path):
        block = CsvBlock("%d,%.12g\n", [(i, i * 0.1) for i in range(20)])
        p1 = write_csv(tmp_path / "one.csv", ["x", "y"], [block])
        p2 = write_csv(tmp_path / "two.csv", ["x", "y"], [block])
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "value, text",
        [
            ("power_var/los", "power_var/los"),
            (42, "42"),
            (True, "1"),
            (False, "0"),
            (np.int64(-7), "-7"),
            (1.0 / 3.0, "0.333333333333"),
            (np.float64(2.0 / 3.0), "0.666666666667"),
            (np.float32(0.1), "0.10000000149"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
            (-0.0, "-0"),
        ],
        ids=lambda v: type(v).__name__ if not isinstance(v, str) else None,
    )
    def test_cell_formats_as_fmt_cell(self, tmp_path, value, text):
        floating = isinstance(value, (float, np.floating))
        spec = "%s" if isinstance(value, str) else "%.12g" if floating else "%d"
        path = write_csv(tmp_path / "t.csv", ["x"], [CsvBlock(spec + "\n", [(value,)])])
        assert path.read_bytes() == f"x\n{text}\n".encode()
        assert fmt_cell(value) == text

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(*[st.floats()] * 4), max_size=6))
    def test_float_rows_write_twelve_significant_digits(self, rows):
        header = ["a", "b", "c", "d"]
        want = "a,b,c,d\n"
        want += "".join(",".join(f"{float(v):.12g}" for v in row) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "t.csv", header, [CsvBlock("%.12g,%.12g,%.12g,%.12g\n", rows)])
            assert path.read_bytes() == want.encode()

    def test_rejects_a_row_wider_than_the_header(self, tmp_path):
        # Or narrower, or a template that is not whole lines.
        path = tmp_path / "out" / "t.csv"
        for template in ("%d,%d,%d\n", "%d\n", "%d,%d", "%d,%d\n%d\n"):
            blocks = [CsvBlock("%d,%d\n", [(1, 2)]), CsvBlock(template, [(1, 2, 3)])]
            with pytest.raises(ValueError, match="is not whole lines of the header's 2 cells"):
                write_csv(path, ["a", "b"], blocks)
            assert not path.exists()

    def test_a_bad_template_fails_after_a_good_one_passed(self, tmp_path):
        path, good = tmp_path / "t.csv", CsvBlock("%d,%d\n", [(1, 2)])
        write_csv(path, ["a", "b"], [good])
        with pytest.raises(ValueError, match="is not whole lines of the header's 2 cells"):
            write_csv(path, ["a", "b"], [good, CsvBlock("%d,%d,%d\n", [(1, 2, 3)])])
        assert not path.exists()
        # the bad template was not kept as passed
        with pytest.raises(ValueError, match="is not whole lines"):
            write_csv(path, ["a", "b"], [CsvBlock("%d\n", [(1,)])])
        assert not path.exists()

    def test_streams_block_by_block_and_removes_a_failed_file(self, tmp_path):
        events = []

        def values(name):
            yield (1,)
            events.append(f"{name} formatted")

        def blocks():
            yield CsvBlock("%d\n", values("first"))
            events.append("second asked for")
            yield CsvBlock("%d\n", values("second"))
            raise RuntimeError("broken campaign")

        path = tmp_path / "t.csv"
        with pytest.raises(RuntimeError, match="broken campaign"):
            write_csv(path, ["a"], blocks())
        assert events == ["first formatted", "second asked for", "second formatted"]
        assert not path.exists()


_PRINTABLE = st.characters(min_codepoint=32, max_codepoint=126)
# Cells by printf spec: text, integers (bool and numpy scalars among them)
# and floats (numpy float32 and every special value among them).
_CELLS = {
    "%s": st.text(_PRINTABLE, max_size=8),
    "%d": st.one_of(
        st.integers(),
        st.integers(min_value=10**12),
        st.integers(max_value=-(10**12)),
        st.booleans(),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
    ),
    "%.12g": st.one_of(
        st.floats(),
        st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.2250738585072e-308]),
        st.floats(width=32).map(np.float32),
    ),
}


@st.composite
def _tables(draw):
    """A header, the template of one row, and rows filled column by column."""
    num_rows = draw(st.integers(0, 6))
    specs = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=5))
    columns = [draw(st.lists(_CELLS[spec], min_size=num_rows, max_size=num_rows)) for spec in specs]
    return [f"c{i}" for i in range(len(specs))], ",".join(specs) + "\n", list(zip(*columns))


class TestWriteCsvTemplates:
    @settings(max_examples=300, deadline=None)
    @given(_tables())
    def test_bytes_equal_a_per_cell_join(self, table):
        header, template, rows = table
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "t.csv", header, [CsvBlock(template, rows)])
            assert path.read_bytes() == joined_csv(header, rows)

    def test_percent_signs(self, tmp_path):
        rows = [("5%d", 1, 0.5), ("%s%%", 2, 1e300)]
        path = write_csv(tmp_path / "t.csv", ["a", "b", "c"], [CsvBlock("%s,%d,%.12g\n", rows)])
        assert path.read_bytes() == b"a,b,c\n5%d,1,0.5\n%s%%,2,1e+300\n"

    def test_label_cells_are_literal_text(self, tmp_path):
        # Only _validate_campaign checks the environments, so the plan takes
        # one whose label printf would read as slots.
        plan = harness._power_var_plan(16, 0.5, (16,), ("80211ad",), ("%d%%",), 2)
        result = PowerVarResult(plan, np.full((1, 2, 16), 0.25))
        gamma = write_csv(tmp_path / "g.csv", GAMMA_HEADER, result.gamma_rows())
        cdf = write_csv(tmp_path / "c.csv", CDF_HEADER, result.cdf_rows())
        assert gamma.read_bytes() == joined_csv(GAMMA_HEADER, gamma_rows(result))
        lead = "power_var/80211ad/%d%%/K16,80211ad,%d%%,16"
        assert gamma.read_text().splitlines()[1:] == [
            f"{lead},{i},0,{f},0.25" for i in range(2) for f in range(16)
        ]
        assert cdf.read_text().splitlines()[1:] == [f"{lead},0.25,1"]


class TestPowerVarCsvBytes:
    """Both power-var CSVs against a cell-by-cell join of the blocks' rows."""

    # At 14 runs the default config's last block starts at gamma row 4,256,
    # in a second chunk.
    @pytest.mark.parametrize("runs", [1, 3, 14])
    @pytest.mark.parametrize("golden_case", [None, "power_var_k3_spread4"])
    def test_csvs_equal_a_per_cell_join(self, tmp_path, golden_case, runs):
        flags = ["--runs", str(runs), "--out", str(tmp_path)]
        exp = replace(ExperimentConfig(), runs=runs)
        if golden_case is not None:
            config = Path(__file__).resolve().parent / "golden" / golden_case / "config.txt"
            flags += ["--config", str(config)]
            exp = replace(parse_config(config.read_text()), runs=runs)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["power-var", *flags]) == 0
        result = power_var_campaign(exp)
        assert result.gammas.shape == (len(exp.environments), runs, len(result.plan.fields))
        assert (len(list(result.gamma_rows())) > 1) == (golden_case is None and runs == 14)
        gamma = (tmp_path / "power_var_gamma.csv").read_bytes()
        cdf = (tmp_path / "power_var_cdf.csv").read_bytes()
        assert gamma == joined_csv(GAMMA_HEADER, gamma_rows(result))
        assert cdf == joined_csv(CDF_HEADER, cdf_rows(result))


class TestCli:
    def test_overhead_command(self, tmp_path, capsys):
        code = cli.main(["overhead", "--beams", "1,16", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "overhead.csv").exists()
        out = capsys.readouterr().out
        assert "overhead.csv" in out

    def test_pattern_command(self, tmp_path):
        code = cli.main(
            ["pattern", "--antennas", "16", "--angles", "90", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "pattern.csv").read_text().splitlines()
        assert lines[0] == "angle_deg,gain_db"
        assert len(lines) == 1800

    def test_pattern_rejects_bad_config(self, tmp_path):
        code = cli.main(
            ["pattern", "--antennas", "0", "--angles", "90", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_train_toy(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--scheme", "exhaustive_beamcoding", "--toy", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "best_pair: (1, 2)" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["link.bandwidth_hz = 0", "channel.carrier_hz = 0"])
    def test_train_toy_checks_the_link_and_channel(self, tmp_path, capsys, line):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text(line + "\n")
        flags = ["--scheme", "exhaustive_pbp", "--toy", "--config", str(config_path)]
        assert cli.main(["train", *flags, "--out", str(tmp_path / "out")]) == 2
        assert line.split(" ")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overhead_of_any_beam_count_is_exact_and_immediate(self, tmp_path):
        k = 10**20
        started = time.perf_counter()
        assert cli.main(["overhead", "--beams", str(k), "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - started < 1.0
        lines = (tmp_path / "overhead.csv").read_text().splitlines()
        ad, coded = 4864 * k, 2**67 * 1024
        assert lines[1:] == [
            f"{k},80211ad,4864,{ad},0,0",
            f"{k},beamcoding,1024,{coded},3840,{ad - coded}",
        ]

    def test_power_var_without_clusters_runs_los_only(self, tmp_path):
        config_path = tmp_path / "los.cfg"
        config_path.write_text(
            "channel.num_clusters = 0\nexperiment.environments = los\n"
            "packet.beams_per_packet = 16\nexperiment.runs = 1\n"
        )
        assert cli.main(["power-var", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "power_var_gamma.csv").read_text().splitlines()) == 1 + 2 * 16

    def test_train_rejects_nlos_without_clusters_before_drawing(
        self, tmp_path, capsys, monkeypatch
    ):
        line = "channel.los = false\nchannel.num_clusters = 0"
        err = self.assert_rejected_before_drawing(
            "train", line, "channel.num_clusters", tmp_path, capsys, monkeypatch
        )
        assert "NLOS channel without clusters" in err
        # the toy scene does not draw from the channel settings
        config_path = tmp_path / "bad.cfg"
        flags = ["--scheme", "exhaustive_pbp", "--toy", "--config", str(config_path)]
        assert cli.main(["train", *flags, "--out", str(tmp_path / "toy")]) == 0

    def test_train_unknown_scheme_is_config_error(self, tmp_path):
        code = cli.main(["train", "--scheme", "psychic", "--out", str(tmp_path)])
        assert code == 2

    def test_power_var_with_config_file(self, tmp_path):
        cfg = small_experiment(runs=2, beams_per_packet=(4,))
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(serialize_config(cfg))
        code = cli.main(
            ["power-var", "--config", str(config_path), "--out", str(tmp_path)]
        )
        assert code == 0
        gamma = tmp_path / "power_var_gamma.csv"
        cdf = tmp_path / "power_var_cdf.csv"
        assert gamma.exists() and cdf.exists()
        assert gamma.read_text().splitlines()[0].startswith("experiment,")

    def test_broken_config_exits_two(self, tmp_path):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("experiment.bogus = 1\n")
        code = cli.main(["power-var", "--config", str(config_path), "--out", str(tmp_path)])
        assert code == 2

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code = cli.main(["quant-sweep", "--config", str(missing), "--out", str(tmp_path)])
        assert code == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, key",
        [
            ("packet.beams_per_packet = 0", "packet.beams_per_packet"),
            ("packet.beams_per_packet = 32", "packet.beams_per_packet"),
            ("experiment.environments = LOS", "experiment.environments"),
            ("experiment.environments = los,indoor", "experiment.environments"),
            ("experiment.environments = los,nlos,los", "experiment.environments"),
            ("experiment.schemes = 80211ad,psychic", "experiment.schemes"),
            ("experiment.runs = 0", "experiment.runs"),
            ("array.spacing = 0.4", "array.spacing"),
            ("packet.beams_per_packet =", "packet.beams_per_packet"),
            ("experiment.schemes =", "experiment.schemes"),
            ("experiment.environments =", "experiment.environments"),
            ("channel.num_clusters = 0", "channel.num_clusters"),
        ],
    )
    def test_power_var_rejects_bad_values_before_drawing(
        self, tmp_path, capsys, monkeypatch, line, key
    ):
        self.assert_rejected_before_drawing(
            "power-var", line, key, tmp_path, capsys, monkeypatch
        )

    @pytest.mark.parametrize(
        "line, key",
        [
            ("experiment.environments = LOS", "experiment.environments"),
            ("experiment.runs = 0", "experiment.runs"),
            ("array.rx_antennas = 0", "array.rx_antennas"),
            ("array.spacing = 0.4", "array.spacing"),
            ("experiment.schemes = 80211ad, bogus", "experiment.schemes"),
            ("experiment.schemes = beamcoding", "experiment.schemes"),
            ("experiment.schemes = beamcoding, 80211ad", "experiment.schemes"),
            ("experiment.environments = nlos, nlos", "experiment.environments"),
            ("experiment.environments =", "experiment.environments"),
            ("quant.bits =", "quant.bits"),
            ("channel.num_clusters = 0", "channel.num_clusters"),
        ],
    )
    def test_quant_sweep_rejects_bad_values_before_drawing(
        self, tmp_path, capsys, monkeypatch, line, key
    ):
        self.assert_rejected_before_drawing(
            "quant-sweep", line, key, tmp_path, capsys, monkeypatch
        )

    @pytest.mark.parametrize(
        "command, line, key",
        [
            (command, line, key)
            for commands, line, key in [
                (("quant-sweep",), "quant.bits = 0", "quant.bits"),
                (("quant-sweep",), "quant.bits = 2,-1", "quant.bits"),
                # 2**1024 phase levels overflow a float.
                (("quant-sweep",), "quant.bits = 1024", "quant.bits"),
                (("quant-sweep",), "quant.bits = 3,inf,2000", "quant.bits"),
                (WITH_CHANNEL, "link.bandwidth_hz = 0", "link.bandwidth_hz"),
                (
                    WITH_CHANNEL,
                    "channel.intra_cluster_tap_spread = -1",
                    "channel.intra_cluster_tap_spread",
                ),
                (WITH_CHANNEL, "channel.cluster_loss_rms_db = -1", "channel.cluster_loss_rms_db"),
                (WITH_CHANNEL, "channel.carrier_hz = 0", "channel.carrier_hz"),
                (WITH_CHANNEL, "channel.distance_m = inf", "channel.distance_m"),
                (WITH_CHANNEL, "channel.path_loss_exponent = nan", "channel.path_loss_exponent"),
                (WITH_CHANNEL, "channel.distance_m = -1", "channel.distance_m"),
                (WITH_CHANNEL, "channel.max_excess_tap = -1", "channel.max_excess_tap"),
                (WITH_CHANNEL, "channel.num_clusters = -1", "channel.num_clusters"),
                (WITH_CHANNEL, "channel.rays_per_cluster = 0", "channel.rays_per_cluster"),
                (WITH_CHANNEL, "link.tx_power_dbm = nan", "link.tx_power_dbm"),
                (WITH_CHANNEL, "link.bandwidth_hz = inf", "link.bandwidth_hz"),
                (
                    WITH_CHANNEL,
                    "channel.intra_cluster_angle_std_deg = -5",
                    "channel.intra_cluster_angle_std_deg",
                ),
                (
                    WITH_CHANNEL,
                    "channel.intra_cluster_angle_std_deg = inf",
                    "channel.intra_cluster_angle_std_deg",
                ),
                (WITH_CHANNEL, "link.tx_power_dbm = inf", NOISE_RATIO_KEYS),
                (WITH_CHANNEL, "link.tx_power_dbm = 1e6", NOISE_RATIO_KEYS),
                (WITH_CHANNEL, "link.tx_power_dbm = -inf", NOISE_RATIO_KEYS),
                (WITH_CHANNEL, "link.noise_figure_plus_impl_db = inf", NOISE_RATIO_KEYS),
                (WITH_CHANNEL, "link.noise_figure_plus_impl_db = 1e6", NOISE_RATIO_KEYS),
                # Either value alone leaves a ratio above 1e-307.
                (
                    WITH_CHANNEL,
                    "link.tx_power_dbm = 3000\nlink.noise_figure_plus_impl_db = -1e3",
                    NOISE_RATIO_KEYS,
                ),
                (
                    WITH_CHANNEL,
                    "channel.cluster_loss_rms_db = 0\nchannel.cluster_loss_mean_db = -1",
                    "channel.cluster_loss_mean_db",
                ),
                # Ray amplitudes that overflow, overflow when squared or
                # underflow to zero.
                (WITH_CHANNEL, "channel.path_loss_exponent = -1e6", "channel.path_loss_exponent"),
                (WITH_CHANNEL, "channel.distance_m = 1e-300", "channel.distance_m"),
                (WITH_CHANNEL, "channel.path_loss_exponent = 1e6", "channel.path_loss_exponent"),
                (
                    WITH_CHANNEL,
                    "channel.cluster_loss_truncation_db = 1e4",
                    "channel.cluster_loss_truncation_db",
                ),
                (
                    WITH_CHANNEL,
                    "channel.cluster_loss_truncation_db = -1e4\nchannel.cluster_loss_mean_db = -10010",
                    "channel.cluster_loss_truncation_db",
                ),
                # Each amplitude squares, but the peak through both arrays
                # does not.
                (WITH_CHANNEL, "channel.distance_m = 8e-158", "array.rx_antennas"),
                (
                    WITH_CHANNEL,
                    "channel.cluster_loss_rms_db = 0.001\nchannel.cluster_loss_mean_db = -1",
                    "channel.cluster_loss_mean_db",
                ),
            ]
            for command in commands
        ],
    )
    def test_unusable_values_rejected_before_drawing(
        self, tmp_path, capsys, monkeypatch, command, line, key
    ):
        self.assert_rejected_before_drawing(command, line, key, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("command", WITH_CHANNEL)
    @pytest.mark.parametrize("spread", [0, 4])
    def test_channel_must_fit_inside_the_ce_sequence(
        self, tmp_path, capsys, monkeypatch, command, spread
    ):
        # The longest channel a 512-chip Golay half can estimate has 511
        # taps of excess delay.
        def config(excess):
            return (
                f"channel.max_excess_tap = {excess - spread}\n"
                f"channel.intra_cluster_tap_spread = {spread}\nexperiment.runs = 1"
            )

        config_path = tmp_path / "longest.cfg"
        config_path.write_text(config(511) + "\n")
        flags = ["--scheme", "exhaustive_pbp"] if command == "train" else []
        argv = [command, *flags, "--config", str(config_path), "--out", str(tmp_path / "ok")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        err = self.assert_rejected_before_drawing(
            command, config(512), TAP_KEYS, tmp_path, capsys, monkeypatch
        )
        assert f"{512 - spread} + {spread} = 512 taps of excess delay" in err

    @pytest.mark.parametrize("command", WITH_CHANNEL)
    @pytest.mark.parametrize(
        "key, bad, good",
        [
            # The spread times a normal draw overflows, and the angle folds
            # to NaN; a tenth of it draws finite angles.
            ("channel.intra_cluster_angle_std_deg", "1e308", "1e307"),
            # Every cluster ray's gain underflows to zero.
            ("channel.cluster_loss_mean_db", "-1e308", "-200"),
            ("channel.cluster_loss_rms_db", "1e308", "100"),
        ],
    )
    def test_channel_draws_must_not_overflow_or_underflow(
        self, tmp_path, capsys, monkeypatch, command, key, bad, good
    ):
        config_path = tmp_path / "good.cfg"
        config_path.write_text(f"{key} = {good}\nexperiment.runs = 1\n")
        flags = ["--scheme", "exhaustive_pbp"] if command == "train" else []
        argv = [command, *flags, "--config", str(config_path), "--out", str(tmp_path / "ok")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        self.assert_rejected_before_drawing(
            command, f"{key} = {bad}", key, tmp_path, capsys, monkeypatch
        )

    @pytest.mark.parametrize("command", WITH_CHANNEL)
    def test_huge_tap_count_exits_two_under_a_memory_cap(self, tmp_path, command):
        # Without the tap-length rule this config asks for cascade tables
        # of gigabytes; under the cap such an allocation fails (exit 1)
        # instead of taking the host's memory.
        import os
        import resource
        import subprocess
        import sys

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        config_path = tmp_path / "huge.cfg"
        config_path.write_text("channel.max_excess_tap = 1000000\n")
        flags = ["--scheme", "exhaustive_pbp"] if command == "train" else []
        argv = [command, *flags, "--config", str(config_path), "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-m", "beamtrain", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=cap_address_space,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: ") and TAP_KEYS in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", WITH_CHANNEL)
    @pytest.mark.parametrize("key", ["array.tx_antennas", "array.rx_antennas"])
    def test_zero_antennas_named_alone_before_the_beam_counts(
        self, tmp_path, capsys, monkeypatch, command, key
    ):
        # power-var checked its beam counts against tx_antennas first and
        # blamed packet.beams_per_packet.
        err = self.assert_rejected_before_drawing(
            command, f"{key} = 0", key, tmp_path, capsys, monkeypatch
        )
        assert err == f"config error: {key} must be at least 1, got 0\n"

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("power-var", "experiment.environments = los,nlos,los", "experiment.environments: los"),
            # Reproduced with one environment: it wrote 64 gamma rows under
            # power_var/80211ad/los/K2, every one with seed_index 0.
            (
                "power-var",
                "experiment.schemes = 80211ad,80211ad\npacket.beams_per_packet = 2,2\n"
                "experiment.environments = los",
                "experiment.schemes: 80211ad",
            ),
            ("power-var", "packet.beams_per_packet = 2,4,2,4,8", "packet.beams_per_packet: 2, 4"),
            ("quant-sweep", "quant.bits = 3,3", "quant.bits: 3"),
            ("quant-sweep", "quant.bits = 1,inf,none", "quant.bits: inf"),
        ],
    )
    def test_repeated_list_entries_rejected_before_drawing(
        self, tmp_path, capsys, monkeypatch, command, line, message
    ):
        key = message.split(":")[0]
        err = self.assert_rejected_before_drawing(
            command, line + "\nexperiment.runs = 1", key, tmp_path, capsys, monkeypatch
        )
        assert err == (
            f"config error: {message} listed more than once; their rows would share one label\n"
        )

    @pytest.mark.parametrize("command", ["power-var", "quant-sweep", "train"])
    def test_repeated_key_rejected_before_drawing(self, tmp_path, capsys, monkeypatch, command):
        # The last value used to win: this config ran 3 runs and exited 0.
        lines = "experiment.runs = 2\nexperiment.runs = 3"
        err = self.assert_rejected_before_drawing(
            command, lines, "experiment.runs", tmp_path, capsys, monkeypatch
        )
        assert err == "config error: line 2: experiment.runs is already set on line 1\n"

    @staticmethod
    def assert_rejected_before_drawing(command, line, key, tmp_path, capsys, monkeypatch):
        def no_channels(*args, **kwargs):
            raise AssertionError("a channel was drawn before the config was checked")

        monkeypatch.setattr(harness, "sample_channel", no_channels)
        config_path = tmp_path / "bad.cfg"
        config_path.write_text(line + "\n")
        out = tmp_path / "out"
        flags = ["--scheme", "exhaustive_pbp"] if command == "train" else []
        code = cli.main([command, *flags, "--config", str(config_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--antennas", "0", "--angles", "90"], "--antennas"),
            (["--antennas", "16", "--angles", "90", "--quant-bits", "0"], "--quant-bits"),
            (["--antennas", "16", "--angles", "90", "--quant-bits", "1024"], "--quant-bits"),
            (["--antennas", "16", "--angles", "75,105", "--signs", "+1"], "--signs"),
            (["--antennas", "16", "--angles", "broadside"], "--angles"),
            (["--antennas", "16", "--angles", "200"], "--angles"),
            (["--antennas", "16", "--angles", "90", "--step", "0"], "--step"),
            (["--antennas", "16", "--angles", "90", "--step", "-0.5"], "--step"),
            (["--antennas", "16", "--dft-beams", "first"], "--dft-beams"),
            (["--antennas", "16", "--dft-beams", "1", "--spacing", "0.25"], "--spacing"),
            (["--antennas", "16", "--angles", "90", "--spacing", "inf"], "--spacing"),
            (["--antennas", "16", "--angles", "90", "--spacing", "nan"], "--spacing"),
        ],
    )
    def test_pattern_rejects_bad_flags_up_front(self, tmp_path, capsys, monkeypatch, flags, flag):
        def no_pattern(*args, **kwargs):
            raise AssertionError("a pattern was computed before the flags were checked")

        monkeypatch.setattr(harness, "pattern_rows", no_pattern)
        code = cli.main(["pattern", *flags, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err

    def test_pattern_of_cancelling_beams_is_config_error(self, tmp_path, capsys):
        flags = ["--antennas", "16", "--angles", "90,90", "--signs", "+1,-1"]
        assert cli.main(["pattern", *flags, "--out", str(tmp_path)]) == 2
        assert "all-zero pattern" in capsys.readouterr().err

    def test_overhead_rejects_bad_beam_counts(self, tmp_path, capsys):
        for beams in ("0", "x"):
            assert cli.main(["overhead", "--beams", beams, "--out", str(tmp_path)]) == 2
            assert "--beams" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["power-var", "--runs", "1"],
            ["quant-sweep", "--runs", "1"],
            ["train", "--scheme", "exhaustive_pbp"],
            ["pattern", "--antennas", "4", "--angles", "90"],
            ["overhead"],
        ],
        ids=itemgetter(0),
    )
    @pytest.mark.parametrize("below", [False, True])
    def test_out_through_a_file_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, below
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work began before --out was checked")

        for name in ("sample_channel", "pattern_rows", "overhead_rows"):
            monkeypatch.setattr(harness, name, no_work)
        file = tmp_path / "file"
        file.write_text("kept")
        out = file / "sub" if below else file
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --out: {file} exists and is not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert file.read_text() == "kept"

    @pytest.mark.parametrize("command", ["power-var", "quant-sweep"])
    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_flag_below_one_names_the_flag(self, tmp_path, capsys, monkeypatch, command, runs):
        monkeypatch.setattr(harness, "sample_channel", None)
        assert cli.main([command, "--runs", runs, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: --runs must be at least 1, got {runs}\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_dir_through_a_file_names_its_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "sample_channel", None)
        file = tmp_path / "file"
        file.write_text("kept")
        config = tmp_path / "exp.cfg"
        config.write_text(f"output.dir = {file}/sub\n")
        assert cli.main(["power-var", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: output.dir: {file} ")

    def test_out_is_created_only_by_the_writer(self, tmp_path):
        out = tmp_path / "new" / "dir"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["overhead", "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["overhead.csv"]

    @staticmethod
    def quant_sweep_on(tmp_path, monkeypatch, sample_channel):
        monkeypatch.setattr(harness, "sample_channel", sample_channel)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(serialize_config(small_experiment(runs=1)))
        return cli.main(["quant-sweep", "--config", str(config_path), "--out", str(tmp_path)])

    def faulty_quant_sweep(self, tmp_path, monkeypatch):
        # a ValueError raised inside a campaign is a fault of the program,
        # not of its config
        def broken_sampler(*args):
            raise ValueError("broken channel sampler")

        return self.quant_sweep_on(tmp_path, monkeypatch, broken_sampler)

    def test_program_fault_exits_one_in_one_line(self, tmp_path, capsys, monkeypatch):
        assert self.faulty_quant_sweep(tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: broken channel sampler\n"

    def test_program_fault_traceback_logged_at_debug(self, tmp_path, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="beamtrain")
        assert self.faulty_quant_sweep(tmp_path, monkeypatch) == 1
        (record,) = [r for r in caplog.records if r.exc_info]
        assert record.levelno == logging.DEBUG
        assert record.exc_info[0] is ValueError

    def test_rayless_channel_writes_minus_inf_db(self, tmp_path, monkeypatch):
        # with no rays every run fails detection at SNR 0, so every cell
        # aggregates to 0, which is -inf dB
        from beamtrain.channel import ChannelRealization

        dead = lambda *args: ChannelRealization([], [], [], [])
        assert self.quant_sweep_on(tmp_path, monkeypatch, dead) == 0
        lines = (tmp_path / "quant_sweep.csv").read_text().splitlines()
        assert lines[0].endswith(",snr_db")
        rows = [line.split(",") for line in lines[1:]]
        assert {row[3] for row in rows} == {"beamcoding", "nbf"}
        assert {row[-1] for row in rows} == {"-inf"}

    def test_parser_built_once_on_first_call(self, tmp_path, monkeypatch):
        built = []
        real_build = cli.build_parser

        def counting_build():
            built.append(1)
            return real_build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert cli.main(["overhead", "--out", str(tmp_path)]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_parser_not_built_at_import(self):
        import subprocess
        import sys

        code = "import beamtrain.cli as c; print(c._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_fresh_processes_produce_identical_bytes(self, tmp_path):
        # determinism must survive interpreter restarts, not just reruns
        # inside one process
        import subprocess
        import sys

        cfg = small_experiment(runs=2, beams_per_packet=(4,))
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(serialize_config(cfg))
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "beamtrain",
                    "power-var",
                    "--config",
                    str(config_path),
                    "--out",
                    str(out),
                ],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(
                (
                    (out / "power_var_gamma.csv").read_bytes(),
                    (out / "power_var_cdf.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "command, bits", [("quant-sweep", 1023), ("power-var", 1024), ("train", 1024)]
    )
    def test_largest_bit_count_runs_and_only_quant_sweep_reads_bits(self, tmp_path, command, bits):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"quant.bits = {bits}\nexperiment.runs = 2\n")
        flags = ["--scheme", "exhaustive_pbp"] if command == "train" else []
        argv = [command, *flags, "--config", str(config_path), "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    def test_quant_sweep_command(self, tmp_path):
        cfg = small_experiment(runs=2, quant_bits=(None,))
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(serialize_config(cfg))
        code = cli.main(
            ["quant-sweep", "--config", str(config_path), "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "quant_sweep.csv").exists()
