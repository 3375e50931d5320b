"""The README's library example runs and gives the results its comments
state, so the example cannot go stale as the API changes."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_gives_its_commented_results():
    # each paragraph runs in turn; a comment "x == y, z == w: note" after it
    # claims those equalities (up to rounding) at that point
    ns, claims = {}, []
    for paragraph in _library_example().split("\n\n"):
        exec(paragraph, ns)
        for comment in re.findall(r"#\s*(.*)", paragraph):
            for claim in re.split(r", (?=\w+ ==)", comment.split(":")[0]):
                if " == " in claim:
                    lhs, rhs = claim.split(" == ")
                    np.testing.assert_allclose(eval(lhs, ns), eval(rhs, ns),
                                               rtol=0, atol=1e-12)
                    claims.append(claim)
    assert claims == ["count == 7", "result == [3, 4, 6, 8]", "count == 4",
                      "block == sm.dense(m)", "count == 4 * 4"]
