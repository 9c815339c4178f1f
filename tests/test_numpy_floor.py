"""The sources keep to the numpy floor that pyproject.toml declares.

Nothing runs the lab on that floor, so this test reads the code of
``src/spolab`` (comments and strings left out) for spellings that newer
numpy releases introduced, and names each hit by file and line.
"""
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spolab"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FLOOR = "numpy>=1.24"

# Spelling -> the numpy release that introduced it.  One level of nested
# parentheses is allowed inside a call's arguments.
_ARGS = r"(?:[^()]|\([^()]*\))*"
NEWER = {
    rf"\breshape\({_ARGS}\bcopy=": "2.1 (reshape copy=)",
    r"\bnp\.(astype|concat|permute_dims|matrix_transpose|isdtype|vecdot|pow|"
    r"acos|acosh|asin|asinh|atan|atan2|atanh|bitwise_count|bitwise_invert|"
    r"bitwise_left_shift|bitwise_right_shift|unique_all|unique_counts|"
    r"unique_inverse|unique_values|trapezoid|long|ulong)\b": "2.0",
    r"\bnp\.(cumulative_sum|cumulative_prod)\b": "2.1",
    r"\bnp\.(matvec|vecmat)\b": "2.2",
    r"\bnp\.linalg\.(vector_norm|matrix_norm|matrix_transpose|vecdot|outer|"
    r"svdvals|diagonal|trace|cross|tensordot|matmul)\b": "2.0",
    r"\bnp\.(strings|dtypes|exceptions)\b": "1.25 or later",
    r"\.(mT|device|to_device)\b": "2.0",
    rf"\bnp\.sort\({_ARGS}\bstable=": "2.0 (sort stable=)",
}


def code_lines(text: str) -> list[tuple[int, str]]:
    """(first line, code) of every logical line, comments and strings
    removed and tokens joined without spaces."""
    out, parts, start = [], [], None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if parts:
                out.append((start, "".join(parts)))
            parts, start = [], None
        elif tok.type not in (tokenize.COMMENT, tokenize.STRING, tokenize.NL,
                              tokenize.INDENT, tokenize.DEDENT):
            start = tok.start[0] if start is None else start
            parts.append(tok.string)
    return out


def newer_spellings(text: str, name: str) -> list[str]:
    return [f"{name}:{line}: numpy {release}: {code}"
            for line, code in code_lines(text)
            for pattern, release in NEWER.items() if re.search(pattern, code)]


def test_the_floor_is_the_one_pyproject_declares():
    assert FLOOR in PYPROJECT.read_text()


def test_the_scan_finds_newer_spellings_in_code_only():
    text = ('"""np.concat( in a docstring"""\n'
            "x = np.zeros(4)  # np.astype( in a comment\n"
            "y = x.reshape(\n    (2, 2), copy=False)\n"
            "z = np.linalg.vector_norm(x)\n"
            "w = np.sort(x, kind='stable')\n")
    hits = newer_spellings(text, "demo.py")
    assert [hit.split(": numpy")[0] for hit in hits] == ["demo.py:3", "demo.py:5"]


def test_sources_use_no_spelling_newer_than_the_numpy_floor():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in newer_spellings(path.read_text(), f"src/spolab/{path.name}")]
    assert hits == [], "\n".join(hits)
