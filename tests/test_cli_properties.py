"""Property test: a --format kv document parses back into what it was
given.

Pairs, table rows and notes are drawn as text without newlines.  Each
rendered line is split at its first " = "; keys and column names are
drawn so that this split is unambiguous (no " = " inside them, and no
trailing " =").  The result must be the pairs, then one entry.N.col cell
per row and column, then one note.N line per note, in that order.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fitlen.cli import Document  # noqa: E402

# spaces and "=" are drawn often, so values hold " = " and keys come close
line_text = st.text(st.sampled_from(" =a") | st.characters(
    exclude_characters="\n"), max_size=12)
keys = line_text.filter(lambda k: " = " not in k + " ")
documents = st.tuples(
    st.lists(st.tuples(keys, line_text), max_size=4),
    st.lists(keys, min_size=1, max_size=3).flatmap(lambda columns: st.tuples(
        st.just(columns),
        st.lists(st.lists(line_text, min_size=len(columns),
                          max_size=len(columns)), max_size=3))),
    st.lists(line_text, max_size=3))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(documents)
def test_kv_document_parses_back_into_its_pairs_cells_and_notes(case):
    pairs, (columns, rows), notes = case
    doc = Document()
    for key, value in pairs:
        doc.add(key, value)
    doc.table(columns)
    for row in rows:
        doc.row(*row)
    for text in notes:
        doc.note(text)
    expected = (pairs
                + [("entry.%d.%s" % (i, col), cell)
                   for i, row in enumerate(rows, 1)
                   for col, cell in zip(columns, row)]
                + [("note.%d" % i, text) for i, text in enumerate(notes, 1)])
    text = doc.render("kv")
    body, end = text[:-1], text[-1]
    assert end == "\n"
    lines = body.split("\n") if body else []
    assert [tuple(line.split(" = ", 1)) for line in lines] == expected
