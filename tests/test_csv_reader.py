"""The block tokenizer of CSV files against csv.reader: the same columns,
row count and error, whatever the line ends, blank lines, field widths
and block cuts; a block that csv.reader reads otherwise is read by it."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast import harness

REQUIRED = ("sku", "date", "sold_quantity")
HEAD = "sku,date,sold_quantity\n"

# one byte past csv.reader's default field size limit
BIG = "7" * 131073

# fields of 0, 7, 8, 9, 16 and 17 bytes, "007" next to "7", non-ASCII SKUs,
# and fields that differ only in the last byte of an 8- or 4-byte word
FIELDS = ["", "7", "007", "2021-02-01", "sku-é-7", "ß" * 8, "abcdefgh" + "é"]
FIELDS += ["x" * n for n in (7, 8, 9, 12, 16, 17)] + ["x" * n + "y" for n in (7, 11, 15, 16)]

ENDS = ["\n", "\r\n"]

# what sends a block to csv.reader: a quoted field, a carriage return
# alone, or a NUL
ODD = ['"a,b"', 'q"q', "c\rd", "7\0"]


def _columns(path, names: tuple, block: int, plain: bool):
    """What ``_read_csv`` gives for the columns ``names`` of the file: its
    error and row count, and each column's text per row; or the exception
    it raises."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_BLOCK", block)
        if not plain:
            patch.setattr(harness, "_plain", lambda data: False)
        try:
            table, stop = harness._read_csv(path, names)
        except Exception as error:  # noqa: BLE001 - compared as they come
            return type(error), str(error)
    values = [[table.values[col][code] for code in table.codes(col).tolist()] for col in range(len(names))]
    return stop, table.count, values


@st.composite
def csv_files(draw):
    header = draw(st.permutations([*REQUIRED, "extra", "other"]))
    header = header[: draw(st.integers(3, 5))]
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        # mostly full rows, some blank, some short and some with extra fields
        width = len(header) + draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, -2, 1, 2, -len(header)]))
        rows.append([draw(st.sampled_from(FIELDS)) for _ in range(width)])
    if rows and draw(st.booleans()):
        # in the SKU column, where it can meet a "7" of the same block
        row = draw(st.sampled_from(rows))
        col = min(header.index("sku") if "sku" in header else 0, len(row))
        row[col : col + 1] = [draw(st.sampled_from(ODD))]
    lines = [",".join(row) + draw(st.sampled_from(ENDS)) for row in [header, *rows]]
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")
    return text


@settings(max_examples=300, deadline=None)
@given(
    text=csv_files(),
    names=st.sampled_from([REQUIRED, (*REQUIRED, "extra")]),
    block=st.sampled_from([1 << 20, 512, 128, 40, 13, 1]),
)
def test_block_tokenizer_matches_csv_reader(text, names, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sales.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _columns(path, names, block, True) == _columns(path, names, 1 << 20, False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([b"7", b",", b"\n", b"\r", b"\r\n"]), max_size=30).map(b"".join))
def test_a_block_is_plain_unless_a_carriage_return_ends_no_crlf(data):
    assert harness._plain(data) == (data.count(b"\r") == data.count(b"\r\n"))


@pytest.mark.parametrize(
    ("data", "plain"),
    [
        (b"7,a,0\n8,b,1\n", True),
        (b"7,a,0\r\n8,b,1\r\n", True),
        (b"\r7,a,0\n", False),
        (b"7,a\r,0\r\n", False),
        (b"7,a,0\r\n8\r", False),
        (b"\r", False),
    ],
    ids=["no-cr", "crlf-only", "lone-cr-first", "lone-cr-inside", "lone-cr-last", "cr-alone"],
)
def test_lone_carriage_return(data, plain):
    assert harness._plain(data) is plain


def _rows(path) -> list:
    table, stop = harness._read_csv(path, REQUIRED)
    assert stop is None
    return [[table.values[col][code] for code in table.codes(col).tolist()] for col in range(3)]


class TestBlocks:
    def test_lines_straddle_blocks(self, tmp_path, monkeypatch):
        path = tmp_path / "sales.csv"
        rows = [f"{sku},2021-02-{day:02d},{day % 3}" for sku in ("7", "007", "sku-é") for day in range(1, 29)]
        path.write_bytes(("sku,date,sold_quantity\r\n" + "\r\n".join(rows)).encode("utf-8"))
        monkeypatch.setattr(harness, "_BLOCK", 11)
        skus, dates, qtys = _rows(path)
        assert [",".join(row) for row in zip(skus, dates, qtys)] == rows

    def test_a_quote_in_a_later_block_reads_the_rest_with_csv_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "sales.csv"
        path.write_text('sku,date,sold_quantity\n1,2021-02-01,0\n"2,3",2021-02-02,1\n4,2021-02-03,2\n')
        monkeypatch.setattr(harness, "_BLOCK", 16)
        assert _rows(path) == [["1", "2,3", "4"], ["2021-02-01", "2021-02-02", "2021-02-03"], ["0", "1", "2"]]

    def test_a_lone_carriage_return_ends_a_row_as_csv_reader_does(self, tmp_path, monkeypatch):
        path = tmp_path / "sales.csv"
        path.write_bytes(b"sku,date,sold_quantity\n1,2021-02-01,0\n7\r8,2021-02-02,1\n")
        monkeypatch.setattr(harness, "_BLOCK", 16)
        table, stop = harness._read_csv(path, REQUIRED)
        assert (table.count, stop) == (1, "missing fields ['date', 'sold_quantity']")

    def test_a_nul_keeps_its_field_apart(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_text("sku,date,sold_quantity\n7,2021-02-01,0\n7\0,2021-02-01,0\n")
        assert _rows(path)[0] == ["7", "7\0"]

    def test_a_short_row_in_a_block_ends_the_read_at_its_row(self, tmp_path, monkeypatch):
        path = tmp_path / "sales.csv"
        path.write_text("sku,date,sold_quantity\n1,2021-02-01,0\n\n2,2021-02-02\n3,2021-02-03,1\n")
        monkeypatch.setattr(harness, "_BLOCK", 24)
        table, stop = harness._read_csv(path, REQUIRED)
        assert (table.count, stop) == (1, "missing fields ['sold_quantity']")
        with pytest.raises(harness.IngestError, match=r"^line 4: missing fields \['sold_quantity'\]$"):
            harness.ingest(path)

    @pytest.mark.parametrize(
        ("text", "line"),
        [
            # a blank line and a quoted field over two lines count in the line named
            (f"{HEAD}7,2021-02-01,0\n\n{BIG},2021-02-02,0\n", 4),
            (f'{HEAD}"x\ny",2021-02-01,0\n{BIG},2021-02-02,0\n', 4),
            # a quoted field is named on the line where it passes the limit
            (f'{HEAD}7,2021-02-01,0\n"{BIG[:70000]}\n{BIG[:70000]}",2021-02-02,0\n', 4),
            # a column that is not read counts too, as in csv.reader
            (f"sku,date,sold_quantity,note\n7,2021-02-01,0,\n8,2021-02-01,0,{BIG}\n", 3),
            (f"sku,date,sold_quantity,{BIG}\n7,2021-02-01,0\n", 1),
            (f'"sku",date,sold_quantity,{BIG}\n7,2021-02-01,0\n', 1),
        ],
        ids=["plain", "after-a-quoted-field", "quoted", "unread-column", "header", "quoted-header"],
    )
    @pytest.mark.parametrize("block", [1 << 20, 4096])
    def test_a_field_past_the_csv_size_limit_is_an_error_of_its_line(self, tmp_path, monkeypatch, text, line, block):
        path = tmp_path / "sales.csv"
        path.write_text(text)
        monkeypatch.setattr(harness, "_BLOCK", block)
        with pytest.raises(harness.IngestError, match=rf"^line {line}: field larger than field limit \(131072\)$"):
            harness.ingest(path)

    def test_an_earlier_row_error_comes_before_a_field_past_the_limit(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_text(f"{HEAD}7,2021-02-01,x\n{BIG},2021-02-02,0\n")
        with pytest.raises(harness.IngestError, match="^line 2: bad sold_quantity 'x'$"):
            harness.ingest(path)

    def test_a_records_field_past_the_limit_is_an_error_of_its_line(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(f"{','.join(harness._RECORD_COLUMNS)}\n7,1,1,nfq,,0.5,3,scored,\n\n{BIG},2,2,nfq,,0.5,3,scored,\n")
        with pytest.raises(harness.IngestError, match=r"^line 4: field larger than field limit \(131072\)$"):
            harness.read_records(path)

    def test_invalid_utf8_raises_as_text_mode_does(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_bytes(b"sku,date,sold_quantity,note\n7,2021-02-01,0,\xff\n")
        with pytest.raises(UnicodeDecodeError):
            harness.ingest(path)
