"""The differential grid script runs, and its digest is the sha256 of its dump."""

import hashlib

import nestrad

import diffgrid


def test_outcome_lines_name_the_call_and_its_result():
    assert diffgrid.outcome(nestrad.check_depth, 0) == (
        "check_depth(0) !! ValueError: depth must be a positive integer, got 0")
    assert diffgrid.outcome(nestrad.gray_signs, 2, width=3) == (
        "gray_signs(2, width=3) -> (-1, -1, 1)")
    # An iterator is listed, so a sweep's rows are part of its line.
    line = diffgrid.outcome(nestrad.sweep_branches, 2, 1, 10)
    assert line.startswith("sweep_branches(2, 1, 10) -> [(0, ")
    assert line.count("), (") == 2


def test_a_slice_of_the_grid_hashes_its_dump(monkeypatch, capsys):
    # Every line names its call once; the digest is that of --dump's output.
    monkeypatch.setattr(diffgrid, "SECTIONS", {
        "tables": diffgrid._tables, "expand": diffgrid._expand})
    lines = list(diffgrid.lines())
    assert len(set(lines)) == len(lines)
    dump = "".join(f"{line}\n" for line in lines)
    assert "expand_nested_cos(13) !! ValueError: depth must be in 1..12" in dump
    diffgrid.main([])
    digest = hashlib.sha256(dump.encode()).hexdigest()
    assert capsys.readouterr().out == f"sha256 {digest}  {len(lines)} lines\n"
    diffgrid.main(["--dump"])
    assert capsys.readouterr().out == dump
