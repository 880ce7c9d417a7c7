"""Config parsing, sweeps, CSV round-trips, and the reference comparison."""

import hashlib
import math
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from multihop import harness
from multihop.capacity import stream_capacity
from multihop.harness import (
    CSV_COLUMNS,
    DEFAULTS,
    ConfigError,
    EngineMismatchError,
    ExperimentSpec,
    ResultRow,
    check_consistency,
    compare_table4,
    layout_from_config,
    load_config,
    parse_config_text,
    parse_csv_text,
    radio_from_config,
    read_csv,
    render_table4,
    rows_to_csv_text,
    run_sweep,
    spec_from_config,
    table4_rows,
    table4_spec,
    write_csv,
)
from multihop.layout import build_layout, stream_route
from multihop.radio import RadioConfig
from multihop.schedule import MODE_NC, MODE_TR


def small_spec(**overrides):
    cfg = dict(DEFAULTS)
    cfg.update(
        nodes_per_stream=4,
        num_streams=1,
        modes=(MODE_TR, MODE_NC),
        z_values=(2, 3),
        hop_counts=(2, 3),
    )
    cfg.update(overrides)
    return spec_from_config(cfg)


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == dict(DEFAULTS)

    def test_values_comments_and_blanks(self):
        cfg = parse_config_text(
            """
            # radio section
            tx_power_w = 0.05   # half the default
            nodes_per_stream = 6

            z_values = 2, 4
            modes = NC
            """
        )
        assert cfg["tx_power_w"] == 0.05
        assert cfg["nodes_per_stream"] == 6
        assert cfg["z_values"] == (2, 4)
        assert cfg["modes"] == ("NC",)
        assert cfg["bandwidth_hz"] == DEFAULTS["bandwidth_hz"]

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3: config key 'tx_power_w' already set on line 1"):
            parse_config_text("tx_power_w = 0.1\nnum_streams = 1\ntx_power_w = 0.2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("power = 3")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("tx_power_w = lots")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words")

    def test_int_key_rejects_float_text(self):
        with pytest.raises(ConfigError):
            parse_config_text("nodes_per_stream = 5.5")

    def test_missing_file_is_a_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.cfg")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("num_streams = 1\nhop_counts = 2,3\n")
        cfg = load_config(str(path))
        assert cfg["num_streams"] == 1
        assert cfg["hop_counts"] == (2, 3)

    def test_builders_pick_their_keys(self):
        cfg = parse_config_text("row_separation_m = 450\nnoise_figure_db = 5")
        assert layout_from_config(cfg).row_separation_m == 450.0
        assert radio_from_config(cfg).noise_figure_db == 5.0


class TestExperimentSpec:
    def test_defaults_build(self):
        spec = spec_from_config(dict(DEFAULTS))
        assert spec.layout.num_streams == 2
        assert spec.hop_counts == (2, 3, 4)

    def test_hops_must_fit_the_layout(self):
        with pytest.raises(ConfigError):
            small_spec(hop_counts=(2, 4))

    def test_z_values_bounded_by_hops(self):
        with pytest.raises(ConfigError):
            small_spec(z_values=(2, 5))

    def test_modes_validated(self):
        with pytest.raises(ConfigError):
            small_spec(modes=("TR", "XX"))
        with pytest.raises(ConfigError):
            small_spec(modes=())

    @pytest.mark.parametrize(
        "overrides",
        [{"modes": (MODE_TR, MODE_TR)}, {"z_values": (2, 2, 3)}, {"hop_counts": (2, 3, 2)}],
    )
    def test_duplicate_entries_rejected(self, overrides):
        with pytest.raises(ConfigError, match="duplicate"):
            small_spec(**overrides)

@pytest.fixture(scope="module")
def rows():
    return run_sweep(small_spec())


@pytest.fixture(scope="module")
def comparison():
    return compare_table4(table4_rows())


class TestRunSweep:
    def test_row_grid_in_spec_order(self, rows):
        assert len(rows) == 8
        assert [(r.mode, r.hops, r.z) for r in rows] == [
            (m, h, z) for m in (MODE_TR, MODE_NC) for h in (2, 3) for z in (2, 3)
        ]

    def test_one_optimum_per_group(self, rows):
        for mode in (MODE_TR, MODE_NC):
            for hops in (2, 3):
                group = [r for r in rows if (r.mode, r.hops) == (mode, hops)]
                flagged = [r for r in group if r.optimum_flag]
                assert len(flagged) == 1
                assert flagged[0].capacity_bps == max(r.capacity_bps for r in group)

    def test_lowest_z_wins_a_capacity_tie(self, monkeypatch):
        def tied(geometry, routes, radio, mode, z, tr_phase):
            # equal bottlenecks b with capacity_per_slot(mode, z, b, b) == 1.0 at every Z
            b = z if mode == MODE_TR else z / 2
            reports = stream_capacity(geometry, routes, radio, mode, z, tr_phase=tr_phase)
            return {
                s: replace(rep, forward_bottleneck_bps=b, reverse_bottleneck_bps=b, capacity_bps=1.0)
                for s, rep in reports.items()
            }

        monkeypatch.setattr(harness, "stream_capacity", tied)
        rows = run_sweep(small_spec(z_values=(3, 2)))  # spec order puts the higher Z first
        assert [(r.mode, r.hops, r.z) for r in rows if r.optimum_flag] == [
            (m, h, 2) for m in (MODE_TR, MODE_NC) for h in (2, 3)
        ]

    def test_rows_match_direct_capacity_calls(self, rows):
        spec = small_spec()
        geo = build_layout(spec.layout)
        for row in rows:
            routes = {1: stream_route(geo, 1, 1, row.hops + 1)}
            rep = stream_capacity(geo, routes, spec.radio, row.mode, row.z)[1]
            assert math.isclose(row.capacity_bps, rep.capacity_bps, rel_tol=1e-12)

    def test_packet_columns_are_exact(self, rows):
        for row in rows:
            want = Fraction(1, row.z) if row.mode == MODE_TR else Fraction(2, row.z)
            assert row.sim_delivery_rate == want
            assert row.sim_latency_fwd >= row.hops
            assert row.sim_latency_rev >= row.hops

    def test_rows_are_slotted_and_still_replaceable(self, rows):
        # a table4 sweep holds 128 rows at its memory peak, so a row keeps no per-instance __dict__
        row = next(r for r in rows if not r.optimum_flag)
        assert not hasattr(row, "__dict__")
        flagged = replace(row, optimum_flag=True)
        assert flagged.optimum_flag and not row.optimum_flag
        assert replace(flagged, optimum_flag=False) == row


class TestConsistencyCheck:
    def test_corrupted_rate_is_caught(self):
        rows = run_sweep(small_spec())
        bad = [replace(rows[0], sim_delivery_rate=Fraction(3, 7))] + rows[1:]
        with pytest.raises(EngineMismatchError):
            check_consistency(bad)

    def test_corrupted_capacity_is_caught(self):
        rows = run_sweep(small_spec())
        bad = [replace(rows[0], capacity_bps=rows[0].capacity_bps * 1.5)] + rows[1:]
        with pytest.raises(EngineMismatchError):
            check_consistency(bad)

    def test_latency_off_by_one_is_caught(self):
        rows = run_sweep(small_spec())
        bad = [replace(rows[0], sim_latency_rev=rows[0].sim_latency_rev + 1)] + rows[1:]
        want = "latencies %d and %d, " % (bad[0].sim_latency_fwd, bad[0].sim_latency_rev)
        with pytest.raises(EngineMismatchError, match=want):
            check_consistency(bad)

    def test_nan_capacity_is_caught(self):
        rows = run_sweep(small_spec())
        nan = float("nan")
        bad = [
            replace(rows[0], forward_bottleneck_bps=nan, reverse_bottleneck_bps=nan, capacity_bps=nan)
        ] + rows[1:]
        with pytest.raises(EngineMismatchError):
            check_consistency(bad)


class TestCsv:
    def test_round_trip_field_by_field(self, rows):
        assert parse_csv_text(rows_to_csv_text(rows)) == rows

    def test_byte_determinism(self, rows):
        again = run_sweep(small_spec())
        assert rows_to_csv_text(rows) == rows_to_csv_text(again)

    def test_file_round_trip(self, rows, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(rows, str(path))
        assert read_csv(str(path)) == rows

    def test_header_is_mandatory(self):
        with pytest.raises(ConfigError):
            parse_csv_text("1,TR,2,2,1.0,1.0,1.0,1,1/2,2,2\n")

    def test_short_row_rejected(self, rows):
        text = rows_to_csv_text(rows).splitlines()
        broken = "\n".join([text[0], "1,TR,2"])
        with pytest.raises(ConfigError):
            parse_csv_text(broken)

    def test_delivery_rate_survives_as_a_fraction(self, rows):
        parsed = parse_csv_text(rows_to_csv_text(rows))
        assert any(r.sim_delivery_rate == Fraction(1, 3) for r in parsed)

    @pytest.mark.parametrize(
        "column, cell",
        [("optimum_flag", "yes"), ("optimum_flag", "2"), ("optimum_flag", "true"),
         ("optimum_flag", ""), ("optimum_flag", " 1"), ("streams", "one"), ("hops", "2.5"),
         ("capacity_bps", "fast"), ("sim_delivery_rate", "1/0"), ("sim_delivery_rate", "half"),
         ("sim_latency_rev", "")],
    )
    def test_bad_cell_is_rejected_naming_the_row(self, rows, column, cell):
        header, first = rows_to_csv_text(rows[:1]).splitlines()
        cells = first.split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        bad = ",".join(cells)
        with pytest.raises(ConfigError, match="bad CSV row") as exc:
            parse_csv_text("\n".join([header, bad]))
        assert bad in str(exc.value)


class TestReferenceComparison:
    def test_grid_is_complete(self, comparison):
        assert len(comparison.cells) == 16
        assert len(comparison.improvements) == 8

    def test_table4_spec_forces_the_published_grid(self):
        spec = table4_spec(streams=2)
        assert spec.layout.nodes_per_stream == 6
        assert spec.hop_counts == (2, 3, 4, 5)
        assert spec.z_values == (2, 3, 4, 5)

    def test_improvements_match_ratio_identity(self, comparison):
        rows = table4_rows()
        by_key = {(r.streams, r.mode, r.hops, r.z): r for r in rows}
        for imp in comparison.improvements:
            tr = next(
                r for r in rows
                if (r.streams, r.mode, r.hops) == (imp.streams, MODE_TR, imp.hops) and r.optimum_flag
            )
            nc = next(
                r for r in rows
                if (r.streams, r.mode, r.hops) == (imp.streams, MODE_NC, imp.hops) and r.optimum_flag
            )
            want = 100.0 * (nc.capacity_bps - tr.capacity_bps) / tr.capacity_bps
            assert math.isclose(imp.at_computed_z_pct, want, rel_tol=1e-12)

    def test_deltas_are_relative_to_published(self, comparison):
        for cell in comparison.cells:
            want = 100.0 * (cell.computed_mbps - cell.published_mbps) / cell.published_mbps
            assert math.isclose(cell.delta_pct, want, rel_tol=1e-12)

    def test_contradicted_cells_carry_notes(self, comparison):
        noted = {(c.streams, c.mode, c.hops) for c in comparison.cells if c.note}
        assert noted == {(1, MODE_TR, 2), (2, MODE_TR, 2)}

    def test_render_summarizes_matches(self, comparison):
        text = render_table4(comparison)
        assert "optimum-Z matches" in text
        assert "capacity cells within 25%" in text
        assert text.count("\n") > 20

    def test_zero_tr_capacity_gives_an_undefined_gain(self):
        """A radio too weak for any rate: NC over a zero TR capacity gains
        nan when NC is zero too, inf when it is not, and nothing divides by zero."""
        rows = [replace(r, capacity_bps=0.0) if r.mode == MODE_TR or r.hops == 2 else r for r in table4_rows()]
        for imp in compare_table4(rows).improvements:
            want = math.nan if imp.hops == 2 else math.inf
            assert repr(imp.at_published_z_pct) == repr(imp.at_computed_z_pct) == repr(want), imp

    def test_missing_rows_rejected(self):
        partial = [r for r in table4_rows() if r.streams == 1]
        with pytest.raises(ValueError, match=re.escape("sweep is missing row (2, 'TR', 2, 3)")):
            compare_table4(partial)

    def test_second_optimum_row_rejected(self):
        rows = table4_rows()
        i = next(
            i for i, r in enumerate(rows)
            if (r.streams, r.mode, r.hops) == (1, MODE_TR, 2) and not r.optimum_flag
        )
        rows[i] = replace(rows[i], optimum_flag=True)
        with pytest.raises(ValueError, match=re.escape("expected one optimum row for (1, 'TR', 2)")):
            compare_table4(rows)


# sha256 of repr(comparison) and repr(comparison.group_z_matches()) for the
# stock radio and the table4 --alt radio, taken before compare_table4 went to
# one pass over the rows
COMPARISON_DIGESTS = {
    None: (
        "ef090bb73aff5d5a716233bf5cf3db85831d025db2d8102a0ebfb9bca9c3e9be",
        "436b3f2d2ba2e5ad0bec0d88d39435291f34dba60f455a87171c0276a0278aee",
    ),
    RadioConfig(tx_gain=2.0, rx_gain=2.0, noise_figure_db=3.0): (
        "5881538341dcbdd5ec3d849e9e31656fd99d89b2a245649d844ecf2ec90b79dc",
        "65ccc3693b474dc350c730ce2196a879b8a26e8f089b3e182a3c09a9082c115a",
    ),
}


@pytest.mark.parametrize("radio", list(COMPARISON_DIGESTS), ids=["stock", "alt"])
def test_comparison_is_pinned(radio):
    """Every cell, improvement and float of the comparison, in order, stays bit-identical."""
    comparison = compare_table4(table4_rows(radio=radio))
    digests = tuple(
        hashlib.sha256(repr(value).encode()).hexdigest()
        for value in (comparison, comparison.group_z_matches())
    )
    assert digests == COMPARISON_DIGESTS[radio]
