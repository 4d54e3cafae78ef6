"""Check results rendered in the TLC output dialect that `tla` parses.

The suite uses it to author the interop fixtures under `fixtures/` and to
round-trip traces through `tla.parse_tlc_output`. TLC explores the whole
model, so a log counts the states of a search with no slice.
"""

from agentconform import checker, ir, tla


def whole_check_all(model: ir.ProtocolModel, properties,
                    bounds: checker.Bounds = checker.DEFAULT_BOUNDS) -> dict:
    """Each property's search of the whole model on one engine, as
    `checker.check_all` searched before it sliced: no property's search
    leaves out a transition."""
    eng = checker._Engine(checker.instance(model, bounds))
    return {p.id: checker._search(eng, p) for p in properties}


def format_tlc_log(model: ir.ProtocolModel, prop: ir.Property,
                   bounds: checker.Bounds = checker.DEFAULT_BOUNDS) -> str:
    """Render the property's search of the whole model in the TLC output
    dialect."""
    result = whole_check_all(model, [prop], bounds)[prop.id]
    enums = tla._enum_values(model)
    out = ["TLC2 Version 2.18"]
    cx = result.counterexample
    if cx is not None:
        out.append(f"Error: Invariant {cx.property_id} is violated.")
        out.append("The behavior up to this point is:")

        def emit_state(n, label, vector):
            out.append(f"State {n}: <{label}>")
            for var, value in zip(model.var_names, vector):
                out.append(f"/\\ {var} = {tla._emit_value(value, enums)}")
            out.append("")

        emit_state(1, "Initial predicate", cx.initial)
        for i, step in enumerate(cx.steps):
            model.transition(step.transition_id)  # raises on unknown id
            label = step.transition_id
            if step.binding:
                label += "(" + ", ".join(a for _, a in step.binding) + ")"
            emit_state(i + 2, f"{label} line 1, col 1 to line 1, col 1 of "
                       f"module {tla._module_name(model)}", step.post_state)
    else:
        out.append("Model checking completed. No error has been found.")
    out.append(f"{result.states_explored * 2} states generated, "
               f"{result.states_explored} distinct states found, "
               "0 states left on queue.")
    return "\n".join(out) + "\n"
