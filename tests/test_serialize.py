"""The JSON writer: the bytes of ``json.dumps(payload, sort_keys=True)`` and a
newline; and the line the CSV reader names for a bad value."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lsdr.cli import main
from lsdr.errors import InputParseError
from lsdr.indices import IndexReport, TciReport, TransformResult
from lsdr.serialize import read_point_cloud, write_json

# an item separator and a newline inside a string, which json must escape
SEPARATOR_TEXT = '"},\n      {"'

texts = st.text() | st.sampled_from(
    [SEPARATOR_TEXT, "", '"', "\\", "\n", "},\n    {", "\x00\x1f\x7f", "é ∑ 🙂", " "]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | texts
)
# lists of dicts of scalars, the shape of a report's contributions
flat_dict_lists = st.lists(st.dictionaries(texts, scalars, max_size=6), max_size=8)
payloads = st.recursive(
    scalars | flat_dict_lists,
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(texts, children, max_size=5)
    | st.dictionaries(st.integers(), children, max_size=3),
    max_leaves=25,
)


def expected_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(texts, payloads, max_size=6) | payloads)
def test_writes_the_bytes_of_json_dumps(tmp_path, payload):
    path = tmp_path / "payload.json"
    write_json(path, payload)
    assert path.read_bytes() == expected_bytes(payload)


def test_an_index_report_with_failed_transforms(tmp_path):
    contributions = [TransformResult(i, i % 3, float(i) / 7) for i in range(50)]
    contributions += [
        TransformResult(50, 0, None, True, f"adapter said {SEPARATOR_TEXT}"),
        TransformResult(51, 1, float("nan")),
        TransformResult(52, 2, float("inf")),
        TransformResult(53, 0, float("-inf")),
        TransformResult(54, 1, None, True, 'quote " backslash \\ tab \t é'),
    ]
    report = IndexReport(
        "pca", "roll", 55, ti=0.25, knn_k=3, tsi=0.9, trustworthiness=0.8, continuity=None,
        tci=TciReport(value=7.0, contributions=contributions, subsampled=True, n_transforms_total=165,
                      base=np.zeros((55, 2))),
        tci_bandwidth=1.5,
    )  # fmt: skip
    path = tmp_path / "report.json"
    write_json(path, report.to_dict())
    assert path.read_bytes() == expected_bytes(report.to_dict())


@pytest.mark.parametrize(
    "command",
    [
        ["reduce", "x.csv", "--d", 1, "--out", "emb.csv"],
        ["index", "x.csv", "--algo", "pca", "--ti", "--tci", "--knn", "--transforms", 40, "--d", 1,
         "--out", "idx.json"],
    ],
)  # fmt: skip
def test_the_files_commands_write(tmp_path, monkeypatch, command):
    # skeleton dumps, index reports and manifests, re-encoded from their own text
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--family", "spiral", "--n", "120", "--seed", "4", "--out", "x.csv"]) == 0
    assert main([str(a) for a in command]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert len(written) >= 3
    for path in written:
        assert path.read_bytes() == expected_bytes(json.loads(path.read_text())), path.name


def test_a_non_finite_value_is_reported_on_its_own_line(tmp_path, capsys):
    # the comment and the blank line before the header count as lines
    path = tmp_path / "x.csv"
    path.write_text("# comment\n\nx0,x1\n1,2\ninf,3\n")
    with pytest.raises(InputParseError, match=r"non-finite value \(line 5\)$"):
        read_point_cloud(path)
    capsys.readouterr()
    assert main(["reduce", str(path), "--d", "1", "--out", str(tmp_path / "emb.csv")]) == 3
    assert capsys.readouterr().err.endswith("non-finite value (line 5)\n")


@pytest.mark.parametrize(
    "text, message",
    [
        # a typo in the first data row is not a header
        ("1,x\n3,4\n5,6\n", r"non-numeric value \(line 1\)"),
        # a header names every column of the data
        ("x0,x1\n1,2,3\n4,5,6\n", r"expected 2 columns, found 3 \(line 2\)"),
        ("x0,x1,x2\n1,2\n", r"expected 3 columns, found 2 \(line 2\)"),
        # a ragged row, header or none
        ("x0,x1\n1,2\n3\n", r"expected 2 columns, found 1 \(line 3\)"),
        ("1,2\n3,4\n5,6,7\n", r"expected 2 columns, found 3 \(line 3\)"),
        # no data row
        ("", r"no data rows"),
        ("# only a comment\n\n", r"no data rows"),
        ("x0,x1\n", r"no data rows"),
    ],
    ids=["typo-row", "wide-data", "narrow-data", "ragged", "ragged-headerless", "empty", "comments", "header-only"],
)
def test_malformed_csvs_name_their_line(tmp_path, capsys, text, message):
    path = tmp_path / "x.csv"
    path.write_text(text)
    with pytest.raises(InputParseError, match=message):
        read_point_cloud(path)
    out = tmp_path / "emb.csv"
    assert main(["reduce", str(path), "--d", "1", "--out", str(out)]) == 3
    assert "ERROR input-parse" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_a_file_without_a_header_is_all_data(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# comment\n1,2\n\n3.5,-4e3\n")
    assert read_point_cloud(path).tolist() == [[1.0, 2.0], [3.5, -4000.0]]
    path.write_text("a,b\n1,2\n3.5,-4e3\n")
    assert read_point_cloud(path).tolist() == [[1.0, 2.0], [3.5, -4000.0]]


def test_an_unreadable_path_is_an_input_parse_error(tmp_path, capsys):
    for path in (tmp_path / "missing.csv", tmp_path):
        with pytest.raises(InputParseError, match="cannot read"):
            read_point_cloud(path)
        assert main(["reduce", str(path), "--d", "1", "--out", str(tmp_path / "emb.csv")]) == 3
        assert "cannot read" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
