"""The JSON writer: the bytes of ``json.dumps(payload, indent=2, sort_keys=True)``;
and the line the CSV reader names for a bad value."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lsdr.cli import main
from lsdr.errors import InputParseError
from lsdr.indices import IndexReport, TciReport, TransformResult
from lsdr.serialize import read_point_cloud, write_json

# the separator the writer re-indents, inside a string it must leave alone
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
# lists of dicts of scalars, the shape of a report's contributions; an empty
# dict among them sends the list down the general path
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
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


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
