import numpy as np
import pytest

from combsync.artifacts import read_table, write_table
from combsync.errors import InvalidArgument


def test_numpy_scalars_come_out_as_shortest_repr_cells(tmp_path):
    floats = np.array([0.1, 1.65e-11, -0.0, 5e-324, 1e16, 1e22, np.finfo(float).max])
    ints = np.arange(floats.size, dtype=np.int64) - 3
    path = tmp_path / "table.csv"
    write_table(path, {"seed": np.int64(7), "scale": np.float64(1.65e-11)}, {"i": list(ints), "x": list(floats)})
    assert path.read_text(encoding="utf-8").splitlines()[:3] == ["# seed=7", "# scale=1.65e-11", "i,x"]
    with open(path, encoding="utf-8") as fh:
        header, columns = read_table(fh)
    assert header == {"seed": "7", "scale": "1.65e-11"}
    assert columns["x"] == [repr(float(x)) for x in floats]
    assert [float(x).hex() for x in columns["x"]] == [float(x).hex() for x in floats]
    assert [int(i) for i in columns["i"]] == ints.tolist()


def test_blank_lines_skipped_and_header_only_table_has_empty_columns():
    header, columns = read_table(["# a=b=c\n", "\n", "tau_s,value\n", "   \n"])
    assert header == {"a": "b=c"}
    assert columns == {"tau_s": [], "value": []}


@pytest.mark.parametrize(
    "lines, match",
    [
        (["# seed=1\n"], "table has no column header line"),
        ([], "table has no column header line"),
        (["x,y,x\n", "1,2,3\n"], "line 1 repeats a column name"),
        (["# seed=1\n", "x,y\n", "1,2\n", "3\n"], "line 4 has 1 cells, the column header has 2"),
        (["x,y\n", "1,2,3\n"], "line 2 has 3 cells, the column header has 2"),
    ],
)
def test_malformed_table_raises_invalid_argument(lines, match):
    with pytest.raises(InvalidArgument, match=match):
        read_table(lines)
