"""Reporting helper tests."""

from repro.bench.reporting import format_table, print_figure


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2.5], [30, 4.123456]])
        lines = text.splitlines()
        assert len(lines) == 4
        widths = {len(l) for l in lines}
        assert len(widths) == 1  # all rows equal width

    def test_float_formatting(self):
        text = format_table(["x"], [[0.00001234], [1234567.0], [0.5]])
        assert "1.234e-05" in text
        assert "1.235e+06" in text or "1234567" in text
        assert "0.5000" in text

    def test_ints_passthrough(self):
        assert "42" in format_table(["n"], [[42]])

    def test_strings_passthrough(self):
        assert "symbolic" in format_table(["variant"], [["symbolic"]])


class TestPrintFigure:
    def test_prints_banner_and_rows(self, capsys):
        print_figure("My Figure", ["a", "b"], [[1, 2]])
        out = capsys.readouterr().out
        assert "My Figure" in out
        assert "=" in out
        assert "1" in out and "2" in out

