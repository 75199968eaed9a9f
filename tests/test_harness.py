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
from beamtrain.beam_coding import encode_ce_field, golay_pair
from beamtrain.channel import ChannelConfig, derive_seed, sample_channel
from beamtrain.experiment import ExperimentConfig, serialize_config
from beamtrain.harness import (
    overhead_rows,
    pattern_rows,
    power_var_campaign,
    quant_sweep_campaign,
    train_once,
    write_csv,
)
from beamtrain.metrics import power_ratio
from beamtrain.packets import LAYOUTS, _tap_rows, power_trace, preamble_samples
from beamtrain.protocols import Scheme


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

class TestOverheadRows:
    def test_exact_integers(self):
        header, rows = overhead_rows([1, 16])
        table = {(r[0], r[1]): r for r in rows}
        assert table[(1, "80211ad")][2] == 4864
        assert table[(1, "beamcoding")][2] == 1024
        assert table[(1, "beamcoding")][4] == 3840
        assert table[(16, "80211ad")][3] == 77824
        assert table[(16, "beamcoding")][3] == 16384
        assert table[(16, "beamcoding")][5] == 77824 - 16384

    def test_single_beam_saving_equals_per_beam(self):
        _, rows = overhead_rows([1])
        coded = [r for r in rows if r[1] == "beamcoding"][0]
        assert coded[4] == coded[5] == 3840


class TestPatternRows:
    def test_single_beam_peak_and_sidelobe(self):
        header, rows = pattern_rows(num_antennas=16, angles_deg=[90.0])
        assert header == ["angle_deg", "gain_db"]
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
        _, ref_rows = pattern_rows(**kwargs)
        _, quant_rows = pattern_rows(quant_bits=2, **kwargs)
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
        _, rows = pattern_rows(num_antennas=16, angles_deg=[60.0, 90.0], uniform=True)
        assert max(r[1] for r in rows) == pytest.approx(0.0, abs=1e-9)


class TestPowerVarCampaign:
    def test_rows_structure_and_sorting(self):
        exp = small_experiment()
        g_header, g_rows, c_header, c_rows = power_var_campaign(exp)
        assert g_header[0] == "experiment"
        keys = [(r[0], r[4], r[5], r[6]) for r in g_rows]
        assert keys == sorted(keys)
        # every scheme/K cell present
        cells = {(r[1], r[3]) for r in g_rows}
        assert cells == {(s, k) for s in exp.schemes for k in (2, 4)}

    def test_cdf_rows_end_at_one(self):
        exp = small_experiment()
        _, _, _, c_rows = power_var_campaign(exp)
        by_cell = {}
        for r in c_rows:
            by_cell.setdefault(r[0], []).append(r)
        for rows in by_cell.values():
            assert rows[-1][5] == pytest.approx(1.0)
            fracs = [r[5] for r in rows]
            assert fracs == sorted(fracs)

    def test_deterministic_under_master_seed(self):
        exp = small_experiment()
        first = power_var_campaign(exp)
        second = power_var_campaign(exp)
        assert first == second
        moved = power_var_campaign(replace(exp, master_seed=2))
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
        _, g_rows, _, c_rows = power_var_campaign(exp)
        plan = harness._power_var_plan(16, 0.5, exp.beams_per_packet, exp.schemes)
        assert len(g_rows) == 2 * 3 * len(plan.fields)
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
        _, g_rows, _, _ = power_var_campaign(self.exp)
        return g_rows, campaign_channels(self.exp)

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
                        gammas = power_ratio(field_powers, samples)
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
        length = len(golay_pair(9))
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
            r: np.mean(np.abs(encode_ce_field(taps[r], plan.golay, guard)) ** 2)
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
        plan = harness._power_var_plan(16, 0.5, beams_per_packet, exp.schemes)
        assert max(p.shape[1] for p in plan.preambles) > 1
        rx_w, tx_cfg, rx_cfg = np.ones(1, dtype=complex), ArrayConfig(16), ArrayConfig(1)
        for ch in campaign_channels(exp).values():
            taps = _tap_rows(plan.weights, rx_w, ch, tx_cfg, rx_cfg)
            got = harness._channel_gammas(plan, taps)
            assert got.tolist() == self.per_packet_gammas(plan, taps)

    @pytest.mark.parametrize("beams_per_packet", [(1, 2, 4, 8, 16), (16, 3, 1, 5)])
    def test_cells_tile_the_gammas_in_config_order(self, beams_per_packet):
        schemes = ("beamcoding", "80211ad")
        plan = harness._power_var_plan(16, 0.5, beams_per_packet, schemes)
        assert [(s, k) for s, k, *_ in plan.cells] == [
            (s, k) for s in schemes for k in beams_per_packet
        ]
        stops = [0] + [entries.stop for _, _, entries, _, _ in plan.cells]
        assert [entries.start for _, _, entries, _, _ in plan.cells] == stops[:-1]
        assert stops[-1] == len(plan.fields) == len(plan.packet_of)
        packets = sum(len(p) for p in plan.preambles)
        assert sorted(set(plan.packet_of.tolist())) == list(range(packets))
        for _, k, entries, labels, fields in plan.cells:
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


class TestCampaignLogging:
    def records(self, caplog, level):
        return [r.getMessage() for r in caplog.records if r.name == "beamtrain.harness" and r.levelno == level]

    def test_power_var_logs_start_end_and_environments(self, caplog):
        caplog.set_level(logging.DEBUG, logger="beamtrain.harness")
        exp = small_experiment(runs=2, environments=("los", "nlos"))
        _, g_rows, _, c_rows = power_var_campaign(exp)
        start, end = self.records(caplog, logging.INFO)
        assert start.startswith("power-var: 2 runs in los, nlos")
        assert end.startswith(f"power-var: 2 runs, 2 environments, {len(g_rows)} gamma and {len(c_rows)} CDF rows in ")
        assert end.endswith(" s")
        los, nlos = self.records(caplog, logging.DEBUG)
        assert los.startswith("power-var: los done in ") and nlos.startswith("power-var: nlos done in ")

    def test_quant_sweep_logs_start_end_and_environments(self, caplog):
        caplog.set_level(logging.DEBUG, logger="beamtrain.harness")
        _, rows = quant_sweep_campaign(small_experiment(runs=1))
        start, end = self.records(caplog, logging.INFO)
        assert start.startswith("quant-sweep: 1 runs in nlos")
        assert end.startswith(f"quant-sweep: 1 runs, 1 environments, {len(rows)} rows in ")
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
        header, rows = quant_sweep_campaign(exp)
        assert header[-1] == "snr_db"
        by_bits = {(r[2], r[3]): r[5] for r in rows}
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
        summary, (header, rows) = train_once(exp, Scheme.EXHAUSTIVE_BEAMCODING, 0, toy=True)
        assert summary["best_pair"] == (1, 2)
        assert summary["packets_sent"] == 4
        assert summary["success"]
        assert rows, "trace dump should not be empty"

    def test_sampled_channel_deterministic(self):
        exp = small_experiment()
        a, _ = train_once(exp, Scheme.EXHAUSTIVE_PBP, 5)
        b, _ = train_once(exp, Scheme.EXHAUSTIVE_PBP, 5)
        assert a == b


class TestWriteCsv:
    def test_header_and_formatting(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 0.5), (2, 1.0 / 3.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,0.333333333333"

    def test_byte_identical_rewrite(self, tmp_path):
        rows = [(i, i * 0.1) for i in range(20)]
        p1 = write_csv(tmp_path / "one.csv", ["x", "y"], rows)
        p2 = write_csv(tmp_path / "two.csv", ["x", "y"], rows)
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
        path = write_csv(tmp_path / "t.csv", ["x"], [(value,)])
        assert path.read_bytes() == f"x\n{text}\n".encode()
        assert harness._fmt_cell(value) == text

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(), min_size=4, max_size=4), max_size=6))
    def test_float_rows_write_twelve_significant_digits(self, rows):
        header = ["a", "b", "c", "d"]
        want = "a,b,c,d\n"
        want += "".join(",".join(f"{float(v):.12g}" for v in row) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "t.csv", header, rows)
            assert path.read_bytes() == want.encode()

    def test_rejects_a_row_wider_than_the_header(self, tmp_path):
        path = tmp_path / "out" / "t.csv"
        with pytest.raises(ValueError, match="row width 3 does not match the header's 2"):
            write_csv(path, ["a", "b"], [(1, 2), (1, 2, 3)])
        with pytest.raises(ValueError, match="row width 1 does not match the header's 2"):
            write_csv(path, ["a", "b"], [(1, 2), (1,)])
        assert not path.parent.exists()


_PRINTABLE = st.characters(min_codepoint=32, max_codepoint=126)
# Cells by column kind: the first three give columns of one exact type, the
# last any mix of types, numpy scalars, bool and None among them.
_CELLS = {
    "str": st.text(_PRINTABLE, max_size=8),
    "int": st.one_of(st.integers(), st.integers(min_value=10**12), st.integers(max_value=-(10**12))),
    "float": st.one_of(
        st.floats(),
        st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.2250738585072e-308]),
    ),
    "mixed": st.one_of(
        st.integers(),
        st.floats(),
        st.booleans(),
        st.none(),
        st.text(_PRINTABLE, max_size=4),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.floats(width=32).map(np.float32),
    ),
}


@st.composite
def _tables(draw):
    """A header and equal-width rows, column by column."""
    num_rows = draw(st.integers(0, 6))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=5)):
        cells = draw(st.lists(_CELLS[kind], min_size=num_rows, max_size=num_rows))
        if kind == "int" and cells and draw(st.booleans()):
            # an int column with one float in it
            cells[draw(st.integers(0, num_rows - 1))] = draw(_CELLS["float"])
        columns.append(cells)
    return [f"c{i}" for i in range(len(columns))], list(zip(*columns))


class TestWriteCsvTemplates:
    @settings(max_examples=300, deadline=None)
    @given(_tables())
    def test_bytes_equal_a_per_cell_join(self, table):
        header, rows = table
        want = ",".join(header) + "\n"
        want += "".join(",".join(map(harness._fmt_cell, row)) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "t.csv", header, rows)
            assert path.read_bytes() == want.encode()

    def test_row_lists_and_percent_signs(self, tmp_path):
        rows = [["5%d", 1, 0.5], ["%s%%", 2, 1e300]]
        path = write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
        assert path.read_bytes() == b"a,b,c\n5%d,1,0.5\n%s%%,2,1e+300\n"


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
                (
                    WITH_CHANNEL,
                    "channel.cluster_loss_rms_db = 0\nchannel.cluster_loss_mean_db = -1",
                    "channel.cluster_loss_mean_db",
                ),
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

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--antennas", "0", "--angles", "90"], "--antennas"),
            (["--antennas", "16", "--angles", "90", "--quant-bits", "0"], "--quant-bits"),
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

        dead = lambda *args: ChannelRealization(rays=())
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

    def test_quant_sweep_command(self, tmp_path):
        cfg = small_experiment(runs=2, quant_bits=(None,))
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(serialize_config(cfg))
        code = cli.main(
            ["quant-sweep", "--config", str(config_path), "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "quant_sweep.csv").exists()
