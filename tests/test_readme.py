"""README's "Library quick start" block, read from README.md and run one
statement at a time: every expression line must give the value its
comment states, and the names it binds hold the values their comments
state."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# the value of each expression line of the block, keyed by its source
SHOWN = {
    "w.blocks.masks": (31,),
    "block_decomposition(g) == w.blocks": True,
    "count_cliques(g, 2)": 5,
    "rep.ok": True,
    "rep.rhs_num, rep.rhs_den, rep.rhs": (40, 4, Fraction(10, 1)),
    "rep.graph6": "Dhc",
    'verify_peel_decomposition(g, trace, (2, 3, 4))[3]["ok"]': True,
    "trace.stages[0].weights == w": True,
}


def quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_gives_the_values_it_states():
    source = quick_start()
    names: dict = {}
    shown = {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            shown[code] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), names)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), names)
    assert shown == SHOWN
    w, rep, tc, trace = names["w"], names["rep"], names["tc"], names["trace"]
    assert w.p == (4,) * 5 and w.c == (5,) * 5
    assert names["counts"] == [1, 5, 5, 0]
    # rhs 10, strict, consistent
    assert rep.rhs == 10 and rep.lhs < rep.rhs and not rep.equality and rep.consistent
    assert tc.terminal_set == {1, 4}
    assert trace.stages[0].start == 0
