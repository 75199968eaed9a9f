import pytest

from beamtrain.experiment import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    serialize_config,
)

SAMPLE = """
# campaign setup
experiment.schemes = 80211ad, beamcoding
experiment.environments = nlos
experiment.runs = 50
experiment.master_seed = 77
array.tx_antennas = 8
array.rx_antennas = 1
packet.beams_per_packet = 1,4,8
quant.bits = 2,3,inf
channel.num_clusters = 3
channel.distance_m = 7.5
channel.los = false
link.tx_power_dbm = 12.0
output.dir = out/test
"""


class TestParsing:
    def test_sample_values(self):
        cfg = parse_config(SAMPLE)
        assert cfg.schemes == ("80211ad", "beamcoding")
        assert cfg.environments == ("nlos",)
        assert cfg.runs == 50
        assert cfg.master_seed == 77
        assert cfg.tx_antennas == 8
        assert cfg.rx_antennas == 1
        assert cfg.beams_per_packet == (1, 4, 8)
        assert cfg.quant_bits == (2, 3, None)
        assert cfg.channel.num_clusters == 3
        assert cfg.channel.distance_m == 7.5
        assert cfg.channel.los is False
        assert cfg.budget.tx_power_dbm == 12.0
        assert cfg.out_dir == "out/test"

    def test_defaults_fill_missing_keys(self):
        cfg = parse_config("experiment.runs = 3\n")
        assert cfg.runs == 3
        assert cfg.tx_antennas == 16
        assert cfg.channel.path_loss_exponent == 2.0
        assert cfg.budget.bandwidth_hz == 2e9

    def test_empty_config_is_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# only a comment\n\n   \nexperiment.runs = 9 # inline\n")
        assert cfg.runs == 9

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("experiment.speed = 11\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("experiment.runs = many\n")

    def test_out_of_range_channel_value(self):
        # caught where the nested config is built, not deep inside a campaign
        with pytest.raises(ConfigError, match="^channel.num_clusters: need a nonnegative cluster"):
            parse_config("channel.num_clusters = -1\n")
        # Only the key that fails on its own is named, not every key set.
        with pytest.raises(ConfigError, match="^channel.distance_m: distance must be positive"):
            parse_config("channel.los = false\nchannel.distance_m = -1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("experiment.runs\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("experiment.runs = 2\nexperiment.runs = 3\n", "line 2: experiment.runs"),
            # The same value twice, a nested key, comments and blanks between.
            ("channel.los = no\n# again\n\nchannel.los = no\n", "line 4: channel.los"),
            ("quant.bits = 1\narray.spacing = 0.5\nquant.bits =\n", "line 3: quant.bits"),
        ],
    )
    def test_repeated_key(self, text, message):
        # The last value used to win silently.
        with pytest.raises(ConfigError, match=f"^{message} is already set on line 1$"):
            parse_config(text)

    def test_bool_forms(self):
        assert parse_config("channel.los = yes\n").channel.los is True
        assert parse_config("channel.los = 0\n").channel.los is False
        with pytest.raises(ConfigError):
            parse_config("channel.los = maybe\n")


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        first = parse_config(SAMPLE)
        text = serialize_config(first)
        second = parse_config(text)
        assert first == second

    def test_serialized_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialization_canonical(self):
        cfg = parse_config(SAMPLE)
        assert serialize_config(cfg) == serialize_config(parse_config(serialize_config(cfg)))

    def test_every_schema_key_serialized(self):
        text = serialize_config(ExperimentConfig())
        for key in (
            "experiment.schemes",
            "array.spacing",
            "packet.beams_per_packet",
            "quant.bits",
            "channel.cluster_loss_rms_db",
            "channel.intra_cluster_tap_spread",
            "link.noise_figure_plus_impl_db",
            "output.dir",
        ):
            assert f"{key} = " in text

    def test_inf_bits_round_trip(self):
        cfg = parse_config("quant.bits = 1,inf,4\n")
        assert cfg.quant_bits == (1, None, 4)
        assert "quant.bits = 1,inf,4" in serialize_config(cfg)
