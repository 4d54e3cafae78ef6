"""Expression grammar, printer, and evaluator."""

import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from agentconform import compiled as C
from agentconform import expr as E
from agentconform import ir


# ---------------------------------------------------------------------------
# Parsing and printing

def test_parse_precedence():
    e = E.parse("a = b or c = d and not e = f")
    assert isinstance(e, E.Or)
    assert isinstance(e.items[1], E.And)


def test_implies_is_right_associative():
    e = E.parse("a = b => b = c => c = d")
    assert isinstance(e, E.Implies)
    assert isinstance(e.rhs, E.Implies)


def test_quantifier_body_extends_right():
    e = E.parse("forall x in D : p[x] = true and q[x] = true")
    assert isinstance(e, E.Forall)
    assert isinstance(e.body, E.And)


def test_quantified_consequent_requires_parens():
    with pytest.raises(E.ExprSyntaxError):
        E.parse("a = b => forall x in D : p[x] = true")
    e = E.parse("a = b => (forall x in D : p[x] = true)")
    assert isinstance(e.rhs, E.Forall)


def test_set_and_int_terms():
    e = E.parse("s union {c1} subseteq t and n + 1 <= 3")
    assert isinstance(e, E.And)


def test_nested_index():
    e = E.parse("delegation[a][b] subseteq caps")
    assert isinstance(e.lhs, E.Index)
    assert isinstance(e.lhs.base, E.Index)


def test_syntax_errors_carry_position():
    with pytest.raises(E.ExprSyntaxError):
        E.parse("forall x D : true")
    with pytest.raises(E.ExprSyntaxError):
        E.parse("a = ")


@pytest.mark.parametrize("text, col", [("x = \u00b2", 5), ("x = 1\u00b2", 6),
                                       ("\u0663 + 1", 1)])
def test_only_ascii_digits_make_integers(text, col):
    """A non-ASCII digit is an unexpected character at its position, not
    an integer that int() then rejects."""
    with pytest.raises(E.ExprSyntaxError) as exc:
        E.parse(text, 3)
    assert (exc.value.line, exc.value.col) == (4, col)
    assert E.parse("x\u00b2 = 12") == E.Cmp("=", E.Name("x\u00b2"),
                                             E.IntLit(12))


def test_deep_nesting_is_a_positioned_syntax_error():
    """Parentheses nested past the interpreter's recursion limit give a
    syntax error at the token the parser had reached, not a
    RecursionError; nesting that fits still parses."""
    depth = sys.getrecursionlimit()
    text = "(" * depth + "true" + ")" * depth
    with pytest.raises(E.ExprSyntaxError, match=r"^expression nested too "
                       r"deeply \(line 3, col \d+\)$") as exc:
        E.parse(text, 2, 10)
    assert exc.value.line == 3 and 11 < exc.value.col <= depth + 10
    assert E.parse("(" * 100 + "true" + ")" * 100) == E.BoolLit(True)


def test_print_round_trip_on_model_formulas():
    samples = [
        "forall t in Tasks : session_state[t] = CLOSED => "
        "(credentials[t] # ACTIVE)",
        "forall a in AgentID : (forall b in AgentID : "
        "delegation[a][b] subseteq original_caps[a])",
        "not prompt_tainted or executed[op_call] = false",
        "exists x in Caps : x in granted[a] and x notin granted[b]",
        "n + 1 <= limit and s union {c1} subseteq all_caps",
    ]
    for text in samples:
        e = E.parse(text)
        assert E.parse(E.print_expr(e)) == e


def test_free_symbols_respects_binding():
    e = E.parse("forall x in D : p[x] = y")
    syms = E.free_symbols(e)
    assert "y" in syms and "p" in syms and "x" not in syms


# ---------------------------------------------------------------------------
# Evaluation

STATE = {
    "flag": True,
    "n": 2,
    "mode": "OPEN",
    "caps": frozenset({"c1"}),
    "grant": E.FMap.of({"ag1": frozenset({"c1"}),
                        "ag2": frozenset()}),
}
CONSTANTS = {"AgentID": ["ag1", "ag2"], "Caps": ["c1", "c2"]}
ATOMS = frozenset({"ag1", "ag2", "c1", "c2", "OPEN", "CLOSED"})


def ev(text):
    return E.evaluate(E.parse(text), STATE, CONSTANTS, ATOMS)


def test_evaluate_basics():
    assert ev("flag and n <= 2") is True
    assert ev("mode = OPEN") is True
    assert ev("c1 in caps and c2 notin caps") is True
    assert ev("grant[ag1] subseteq caps") is True
    assert ev("forall a in AgentID : grant[a] subseteq caps") is True
    assert ev("exists a in AgentID : grant[a] = {}") is True


def test_evaluate_implication_and_union():
    assert ev("n = 3 => mode = CLOSED") is True
    assert ev("caps union {c2} = {c1, c2}") is True


def test_unbound_symbol():
    with pytest.raises(E.UnboundSymbolError):
        ev("nonsense = 1")


def test_type_errors():
    with pytest.raises(E.ExprTypeError):
        ev("n and flag")
    with pytest.raises(E.ExprTypeError):
        ev("mode < 3")
    with pytest.raises(E.ExprTypeError):
        ev("grant[c1]")


def test_index_outside_domain():
    with pytest.raises(E.ExprTypeError):
        ev("grant[OPEN] = {}")


# ---------------------------------------------------------------------------
# Property-based: printer/parser round trip and quantifier duality

# "x" is bound only inside a quantifier; "nosuch" is never bound
_names = st.sampled_from(["flag", "n", "mode", "caps", "ag1", "ag2", "c1",
                          "OPEN", "grant", "deleg", "AgentID", "Caps", "x",
                          "nosuch"])
# "Nope" is no domain
_domains = st.sampled_from(["AgentID", "AgentID", "Caps", "Nope"])
_RELOPS = ["=", "#", "<", "<=", ">", ">=", "in", "notin", "subseteq"]
# map keys: mostly in the key domain, sometimes outside it or outside its
# bounded part (ag3, and who, a state read), of the wrong kind or unbound
_keys = st.sampled_from(["x", "x", "x", "ag1", "ag2", "ag3", "who", "c1",
                         "n", "nosuch"]).map(E.Name)


def _leaf():
    return st.one_of(
        _names.map(E.Name),
        st.integers(min_value=0, max_value=3).map(E.IntLit),
        st.booleans().map(E.BoolLit),
    )


def _left(op, lhs, rhs):
    """`+`/`union` terms nest only to the left, as the parser builds them."""
    return st.tuples(lhs, rhs).map(lambda p: E.BinTerm(op, p[0], p[1]))


def _typed_addends():
    """(sets, ints, atoms, bools): addend-level terms of one kind."""
    sets = st.one_of(
        st.sampled_from(["caps", "AgentID", "Caps"]).map(E.Name),
        _keys.map(lambda k: E.Index(E.Name("grant"), k)),
        st.tuples(_keys, _keys).map(
            lambda p: E.Index(E.Index(E.Name("deleg"), p[0]), p[1])),
        st.lists(st.sampled_from(["c1", "c2", "x"]).map(E.Name),
                 max_size=2).map(lambda xs: E.SetLit(tuple(xs))),
    )
    ints = st.one_of(st.just(E.Name("n")),
                     st.integers(min_value=0, max_value=3).map(E.IntLit))
    return (sets, ints,
            st.sampled_from(["mode", "OPEN", "CLOSED", "x", "ag1",
                             "c1"]).map(E.Name),
            st.one_of(st.just(E.Name("flag")), st.booleans().map(E.BoolLit)))


def _typed_terms():
    """(sets, ints, atoms, bools): terms of one kind, so that comparisons
    are mostly well-typed and quantifier bodies depend on the variable."""
    sets, ints, atoms, bools = _typed_addends()
    return (st.one_of(sets, _left("union", sets, sets)),
            st.one_of(ints, _left("+", ints, ints)), atoms, bools)


def _terms(depth=2):
    """Any term: typed ones, index chains over every variable and key, set
    literals, and `+`/`union` over terms of any kind."""
    chains = st.tuples(st.sampled_from(["grant", "deleg", "mode", "caps"]),
                       st.lists(_keys, min_size=1, max_size=3)).map(
        lambda p: _fold_index(E.Name(p[0]), p[1]))
    addend = st.one_of(_leaf(), chains, *_typed_addends())
    if depth == 0:
        return addend
    sub = _terms(depth - 1)
    return st.one_of(
        addend,
        st.lists(sub, max_size=3).map(lambda xs: E.SetLit(tuple(xs))),
        st.sampled_from(["+", "union"]).flatmap(
            lambda op: _left(op, sub, addend)),
    )


def _fold_index(base, keys):
    for k in keys:
        base = E.Index(base, k)
    return base


def _comparisons():
    sets, ints, atoms, bools = _typed_terms()
    rel = st.sampled_from
    pair = st.tuples
    return st.one_of(
        pair(rel(["=", "#"]), st.one_of(pair(sets, sets), pair(ints, ints),
                                        pair(atoms, atoms),
                                        pair(bools, bools))),
        pair(rel(["<", "<=", ">", ">="]), pair(ints, ints)),
        pair(rel(["in", "notin"]), pair(st.one_of(atoms, sets), sets)),
        pair(rel(["subseteq"]), pair(sets, sets)),
        pair(rel(_RELOPS), pair(_terms(1), _terms(1))),  # mostly ill-typed
    ).map(lambda c: E.Cmp(c[0], c[1][0], c[1][1]))


def _exprs(depth=3):
    if depth == 0:
        return st.one_of(_comparisons(), _typed_terms()[3])
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(sub, sub).map(lambda p: E.And((p[0], p[1]))),
        st.tuples(sub, sub).map(lambda p: E.Or((p[0], p[1]))),
        st.tuples(sub, sub).map(lambda p: E.Implies(p[0], p[1])),
        sub.map(E.Not),
        st.tuples(_domains, sub).map(lambda p: E.Forall("x", p[0], p[1])),
        st.tuples(_domains, sub).map(lambda p: E.Exists("x", p[0], p[1])),
    )


def _about_x():
    """Comparisons that read the quantified variable "x"."""
    sets, _, _, _ = _typed_terms()
    x_sets = st.one_of(
        st.just(E.Index(E.Name("grant"), E.Name("x"))),
        _keys.map(lambda k: E.Index(E.Index(E.Name("deleg"), E.Name("x")),
                                    k)))
    return st.one_of(
        st.tuples(st.sampled_from(["=", "#", "subseteq"]), x_sets, sets),
        st.tuples(st.sampled_from(["in", "notin"]), st.just(E.Name("x")),
                  sets),
    ).map(lambda c: E.Cmp(*c))


def _quantified():
    body = st.one_of(_about_x(), st.tuples(_about_x(), _exprs(1)).map(
        lambda p: E.Implies(p[0], p[1])), _exprs(2))
    return st.tuples(st.sampled_from([E.Forall, E.Exists]), _domains,
                     body).map(lambda q: q[0]("x", q[1], q[2]))


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_round_trip_random(e):
    assert E.parse(E.print_expr(e)) == e


_RENAMABLE = ["flag", "n", "mode", "caps", "ag1", "grant", "deleg", "x",
              "AgentID", "Caps", "Nope"]


def _quantifiers(e):
    return [(E.binder(s), s.domain) for s in E.iter_subterms(e)
            if E.binder(s) is not None]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_exprs(), _quantified()), st.sets(st.sampled_from(_RENAMABLE)))
def test_rename_maps_free_symbols_and_domains_only(e, names):
    """Renamed to fresh names, the free symbols are the mapped free
    symbols, and every quantifier keeps its variable and maps its
    domain."""
    mapping = {n: "fresh_" + n for n in names}
    renamed = E.rename(e, mapping)
    assert E.free_symbols(renamed) == {
        mapping.get(n, n) for n in E.free_symbols(e)}
    assert _quantifiers(renamed) == [
        (var, mapping.get(dom, dom)) for var, dom in _quantifiers(e)]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(["ag1", "ag2"]), st.booleans(),
                       min_size=2, max_size=2))
def test_quantifier_de_morgan(assign):
    state = {"p": E.FMap.of(assign)}
    consts = {"AgentID": ["ag1", "ag2"]}
    body = E.parse("p[x] = true")
    lhs = E.Not(E.Forall("x", "AgentID", body))
    rhs = E.Exists("x", "AgentID", E.Not(body))
    assert E.evaluate(lhs, state, consts, None) == \
        E.evaluate(rhs, state, consts, None)


# ---------------------------------------------------------------------------
# Differential: compiled source against the reference evaluator

def _sets():
    return st.frozensets(st.sampled_from(["c1", "c2"]))


def _states():
    agents = ["ag1", "ag2"]
    return st.fixed_dictionaries({
        "flag": st.booleans(),
        "n": st.integers(min_value=0, max_value=3),
        "mode": st.sampled_from(["OPEN", "CLOSED"]),
        "who": st.sampled_from(["ag1", "ag2", "ag3"]),
        "caps": _sets(),
        "grant": st.fixed_dictionaries({a: _sets() for a in agents}).map(
            E.FMap.of),
        "deleg": st.fixed_dictionaries({
            a: st.fixed_dictionaries({b: _sets() for b in agents}).map(
                E.FMap.of) for a in agents}).map(E.FMap.of),
    })


def _outcome(fn):
    try:
        return ("value", fn())
    except (E.ExprError, KeyError) as exc:
        return (type(exc), str(exc))


# The differential's model: AgentID declares ag3, which the bounded
# instance (CONSTANTS) leaves out, as a cap of 2 would.
_SORTS = {"flag": ir.BoolSort(), "n": ir.CounterSort(3),
          "mode": ir.EnumSort(("OPEN", "CLOSED")),
          "who": ir.EnumSort(("ag1", "ag2", "ag3")),
          "caps": ir.SetSort("Caps"),
          "grant": ir.MapSort("AgentID", ir.SetSort("Caps")),
          "deleg": ir.MapSort("AgentID",
                              ir.MapSort("AgentID", ir.SetSort("Caps")))}
_MODEL = ir.ProtocolModel(
    "differential", "2025-01",
    (("AgentID", ("ag1", "ag2", "ag3")), ("Caps", ("c1", "c2"))),
    tuple(ir.StateVarDecl(n, s, ir.InitExpr(E.BoolLit(False)))
          for n, s in _SORTS.items()), (), ())


def _well_sorted(e) -> bool:
    """e = e is well-sorted just when e is."""
    check = ir.Property("E", "P0", "aasm-hardening", E.Cmp("=", e, e))
    return not ir.subject_findings(_MODEL, check)


_STATE = {**STATE, "who": "ag3", "deleg": E.FMap.of({
    "ag1": E.FMap.of({"ag1": frozenset(), "ag2": frozenset({"c1"})}),
    "ag2": E.FMap.of({"ag1": frozenset({"c2"}), "ag2": frozenset()})})}


@settings(max_examples=400, deadline=None)
@given(st.one_of(_exprs(), _quantified(), _terms()), _states())
@example(E.parse("mode notin caps"), _STATE)
@example(E.parse("forall x in AgentID: c2 notin deleg[x][x]"), _STATE)
@example(E.parse("deleg[ag3][ag1] = {}"), _STATE)
@example(E.parse("deleg[ag1][ag3]"), _STATE)
@example(E.parse("grant[ag1] = deleg[ag2][who]"), _STATE)
@example(E.parse("n + 1 > 2 => caps # {}"), _STATE)
@example(E.parse("mode # ag1 and caps # {ag2} and who # OPEN and n # 4"),
         _STATE)
@example(E.parse("flag or flag"), _STATE)
@example(E.parse("deleg[ag3][ag1] = {} and deleg[ag3][ag1] = {}"), _STATE)
@example(E.parse("exists x in AgentID: n > 1"), _STATE)
def test_compiled_matches_evaluator(e, state):
    """On every expression the sort checker accepts, the same value, or
    the same exception type and message (a key outside the bounded
    AgentID), with each slot's field and codes from its sort and the
    model's declared domains, and every other variable's fields packed
    below the rest, as a step's stores are."""
    assume(_well_sorted(e))
    names = list(state)
    values = [state[n] for n in names]
    slots, leaves = C.layout(names, [_SORTS[n] for n in names], CONSTANTS)
    env = C.environment()
    C.pack(slots, leaves, _MODEL.constants_map, env, names[1::2])
    packed = C.encode(values, env)
    assert C.decode(packed, env) == tuple(values)
    fn = C.function(C.value(C.compile_expr(e, slots, CONSTANTS, env),
                            env)[0], env)
    atoms = ATOMS | {"ag3"}
    assert _outcome(lambda: fn(packed)) == \
        _outcome(lambda: E.evaluate(e, state, CONSTANTS, atoms))
