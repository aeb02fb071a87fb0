"""Matrix DSL: axes, explicit pairs, dedup, and error reporting."""

import pytest

from repro.verify import AXES, CONFIGS, parse_matrix


class TestParseMatrix:
    def test_backends_axis_is_interp_vs_compiled(self):
        matrix = parse_matrix("backends")
        assert matrix.pair_names == ["interp~compiled"]

    def test_every_axis_expands_to_known_configs(self):
        for axis, pairs in AXES.items():
            matrix = parse_matrix(axis)
            assert len(matrix.pairs) == len(pairs)
            for pair in matrix.pairs:
                assert pair.a.name in CONFIGS
                assert pair.b.name in CONFIGS

    def test_explicit_pair_token(self):
        matrix = parse_matrix("interp:compiled")
        assert matrix.pair_names == ["interp~compiled"]

    def test_axes_compose_and_dedupe(self):
        # "backends" already includes interp~compiled; the explicit
        # token must not duplicate it.
        matrix = parse_matrix("backends,interp:compiled,cache")
        assert matrix.pair_names == ["interp~compiled", "interp~nocache"]

    def test_whitespace_tolerated(self):
        assert parse_matrix(" backends , cache ").pair_names == \
            parse_matrix("backends,cache").pair_names

    def test_unknown_axis_lists_valid_axes(self):
        with pytest.raises(ValueError, match="backends"):
            parse_matrix("nonsense")

    def test_unknown_config_in_pair_lists_configs(self):
        with pytest.raises(ValueError, match="interp"):
            parse_matrix("interp:warp9")

    def test_retired_fastpath_config_is_unknown(self):
        # The backend name fastpath is an alias of interp, so a pair
        # naming it would compare a configuration with itself.
        with pytest.raises(ValueError,
                           match="unknown verify configuration 'fastpath'"):
            parse_matrix("interp:fastpath")

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            parse_matrix("interp:interp")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_matrix("  ,  ")

    def test_parse_is_deterministic(self):
        assert parse_matrix("backends,icache") == \
            parse_matrix("backends,icache")


class TestConfigs:
    def test_icache_pair_excludes_timing(self):
        matrix = parse_matrix("icache")
        assert matrix.pairs[0].compare_cycles is False

    def test_backend_pairs_compare_cycles(self):
        for pair in parse_matrix("backends").pairs:
            assert pair.compare_cycles is True

    def test_configs_lists_each_config_once(self):
        matrix = parse_matrix("backends,traces")
        names = [config.name for config in matrix.configs()]
        assert names == ["interp", "compiled", "compiled+traces"]
        assert len(names) == len(set(names))

    def test_compiled_config_promotes_immediately(self):
        compiled = CONFIGS["compiled"]
        assert compiled.jit_threshold == 1

    def test_checkpoint_config_flags_checkpoint(self):
        assert CONFIGS["ckpt-resume"].checkpoint is True

    def test_machine_config_round_trip(self):
        from repro.isa import RV32IMC_ZICSR

        config = CONFIGS["compiled"].machine_config(RV32IMC_ZICSR)
        assert config.backend == "compiled"
        assert config.jit_threshold == 1
        nocache = CONFIGS["nocache"].machine_config(RV32IMC_ZICSR)
        assert nocache.block_cache_enabled is False
