"""The two record kinds through the one reader and writer."""

import json
import re

import numpy as np
import pytest

from smefilter.cli import cmd_filter, cmd_simulate, parse_config
from smefilter.diffusion import CountingRecord, MeasurementRecord, read_record, write_record

KINDS = {
    MeasurementRecord: np.array([0.25, -1e-300, 5e-324, 3.0, -0.0]),
    CountingRecord: np.array([1, 0, 0, 1, 1]),
}
CONFIGS = {
    "diffusion": {"dt": 0.01, "T": 0.3, "seed": 2},
    "jump": {"mode": "jump", "scheme": "pathwise", "C": "pauli_x", "dt": 0.01, "T": 0.3, "seed": 2},
}


def test_records_of_two_kinds_are_unequal():
    counts = KINDS[CountingRecord]
    assert (MeasurementRecord(0.1, counts) == CountingRecord(0.1, counts)) is False


def assert_same(back, record):
    assert type(back) is type(record)
    assert (back.dt, back.t0) == (record.dt, record.t0)
    assert back.values.dtype == record.values.dtype
    assert back.values.tobytes() == record.values.tobytes()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
class TestEveryKind:
    @pytest.mark.parametrize("dt, t0, size", [(0.01, 0.0, 5), (0.1, -2.5, 5), (1e-3, 1e300, 5), (0.5, 3.25, 0)])
    def test_roundtrip_is_bitwise(self, tmp_path, kind, dt, t0, size):
        record = kind(dt, KINDS[kind][:size], t0)
        path = tmp_path / "record.csv"
        write_record(path, record, ["origin: test"])
        assert_same(read_record(path), record)
        assert_same(read_record(path, kind), record)

    def test_comparison_gives_a_bool(self, kind):
        # the comparison of the value arrays raised "truth value ... is ambiguous"
        values = KINDS[kind]
        record = kind(0.1, values, 2.0)
        changed = values.copy()
        changed[1] = 1 - changed[1]
        assert (record == record) is True
        for other in (kind(0.2, values, 2.0), kind(0.1, values, 2.5), kind(0.1, changed, 2.0), None):
            assert (record == other) is False and (record != other) is True

    def test_zero_step_record_takes_dt_from_its_comment(self, tmp_path, kind):
        path = tmp_path / "record.csv"
        path.write_text(f"# dt: 0.125\nt,{kind.column}\n")
        assert_same(read_record(path), kind(0.125, KINDS[kind][:0]))

    def test_header_picks_the_kind(self, tmp_path, kind):
        path = tmp_path / "record.csv"
        write_record(path, kind(0.1, KINDS[kind]))
        assert f"\nt,{kind.column}\n" in path.read_text()
        assert type(read_record(path)) is kind

    def test_constructor_copies_and_freezes(self, kind):
        values = KINDS[kind].copy()
        record = kind(0.1, values)
        assert not record.values.flags.writeable
        assert values.flags.writeable
        values[0] = 0
        assert record.values[0] == KINDS[kind][0]
        with pytest.raises(ValueError, match="read-only"):
            record.values[0] = 0
        assert record.values is getattr(record, record.field)

    def test_complex_values_are_rejected_by_name(self, kind):
        # numpy would drop the imaginary parts with a ComplexWarning
        values = KINDS[kind] + 2j
        with pytest.raises(ValueError, match=rf"^{kind.field} must be real, got dtype complex128$"):
            kind(0.1, values)
        with pytest.raises(ValueError, match=rf"^{kind.field} must be real"):
            kind(0.1, values.real + 0j)

    def test_filter_rejects_a_record_of_the_other_mode(self, tmp_path, kind):
        cfg = parse_config(json.dumps(CONFIGS[kind.mode]))
        cmd_simulate(cfg, tmp_path / "sim")
        other = next(m for m in CONFIGS if m != kind.mode)
        message = f"^record is a {kind.mode} record but config mode is '{other}'$"
        with pytest.raises(ValueError, match=message):
            cmd_filter(parse_config(json.dumps(CONFIGS[other])), tmp_path / "sim" / kind.file_name, tmp_path / "out")


def test_unknown_header_names_both_headers_and_the_line(tmp_path):
    path = tmp_path / "record.csv"
    path.write_text("# dt: 0.1\n\nt,dz\n0.1,1\n")
    message = f"^{re.escape(str(path))}, line 3: expected header 't,dy' or 't,dN', got 't,dz'$"
    with pytest.raises(ValueError, match=message):
        read_record(path)
    with pytest.raises(ValueError, match=message):
        cmd_filter(parse_config("{}"), path, tmp_path / "out")


def test_empty_file_is_named(tmp_path):
    path = tmp_path / "record.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: file contains no 't,dy' or 't,dN' header$"):
        cmd_filter(parse_config("{}"), path, tmp_path / "out")
