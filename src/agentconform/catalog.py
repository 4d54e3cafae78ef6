"""The 11-principle catalog: schematic invariants, taxonomy table, layer map.

P3, P6 and P8 are written exactly as published formulas; P1, P2, P4, P5 and
P7 are reconstructed from their prose definitions (tagged
reconstructed-from-prose below). The CS principle quantifies over two
composed models plus a bridge, so its templates live in the composer; this
module only maps it in the layer table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import expr as E
from . import ir


class CatalogError(Exception):
    pass


NOT_CATALOGED = "NOT_CATALOGED"


def _shape(sort) -> str:
    """A sort's shape as the templates' roles spell it: "COUNTER", "BOOL",
    "ENUM", "SET", or "MAP->" followed by the value's shape."""
    if isinstance(sort, ir.MapSort):
        return "MAP->" + _shape(sort.value)
    return type(sort).__name__[:-len("Sort")].upper()


@dataclass(frozen=True)
class PrincipleTemplate:
    id: str  # P1..P8, WF, SL
    name: str
    schematic: str  # invariant text with {role} placeholders
    roles: tuple  # ((role, shape), ...); shape "DOMAIN" binds a constant set

    @property
    def property_id(self) -> str:
        return f"{self.id}_{self.name}"


TEMPLATES = (
    # reconstructed-from-prose: no action succeeds for an unauthenticated
    # principal, realized as a guard-side violation counter staying at zero
    PrincipleTemplate(
        "P1", "IdentityVerifiability",
        "{unauth_msgs} = 0",
        (("unauth_msgs", "COUNTER"),)),
    # reconstructed-from-prose
    PrincipleTemplate(
        "P2", "CapabilityAttestation",
        "forall a in {agents_dom}: {capability_used}[a] => "
        "{manifest_attested}[a]",
        (("agents_dom", "DOMAIN"), ("capability_used", "MAP->BOOL"),
         ("manifest_attested", "MAP->BOOL"))),
    PrincipleTemplate(
        "P3", "DelegationMonotonicity",
        "forall ag1 in {agents_dom}: forall ag2 in {agents_dom}: "
        "ag1 # ag2 => {delegation}[ag1][ag2] subseteq {original_caps}[ag1]",
        (("agents_dom", "DOMAIN"), ("delegation", "MAP->MAP->SET"),
         ("original_caps", "MAP->SET"))),
    # reconstructed-from-prose
    PrincipleTemplate(
        "P4", "PromptIntegrity",
        "{prompt_tainted} = false",
        (("prompt_tainted", "BOOL"),)),
    # reconstructed-from-prose
    PrincipleTemplate(
        "P5", "ConsentExplicitness",
        "forall op in {ops_dom}: {executed}[op] => {consent_granted}[op]",
        (("ops_dom", "DOMAIN"), ("executed", "MAP->BOOL"),
         ("consent_granted", "MAP->BOOL"))),
    PrincipleTemplate(
        "P6", "AuditCompleteness",
        "{audit_count} >= {msg_count}",
        (("audit_count", "COUNTER"), ("msg_count", "COUNTER"))),
    # reconstructed-from-prose
    PrincipleTemplate(
        "P7", "FailSecure",
        "{error_raised} => {error_mode} = RESTRICTIVE",
        (("error_raised", "BOOL"), ("error_mode", "ENUM"))),
    PrincipleTemplate(
        "P8", "CredRevocation",
        "forall s in {sessions_dom}: {session_state}[s] = CLOSED => "
        "{credentials}[s] = REVOKED",
        (("sessions_dom", "DOMAIN"), ("session_state", "MAP->ENUM"),
         ("credentials", "MAP->ENUM"))),
    PrincipleTemplate(
        "WF", "WireFormat",
        "{malformed_delivered} = false",
        (("malformed_delivered", "BOOL"),)),
    PrincipleTemplate(
        "SL", "SessionLifecycle",
        "{lifecycle_stuck} = false",
        (("lifecycle_stuck", "BOOL"),)),
)


def template(principle: str) -> PrincipleTemplate:
    for t in TEMPLATES:
        if t.id == principle:
            return t
    raise CatalogError(f"no template for principle {principle!r} "
                       "(CS templates live in the composer)")


# the variable bound to a role is named after the role, except here
_CANONICAL = {"unauth_msgs": "msgs_from_unauthenticated"}


def default_binding(tmpl: PrincipleTemplate, model: ir.ProtocolModel,
                    prefix: str = "") -> dict:
    """Bind roles to a bundled model's canonically named variables.

    Domain roles are inferred from the map sorts of already-bound roles,
    so models are free to call their agent/session domains what their
    protocol calls them (AgentID, Tasks, ...).
    """
    binding = {}
    domains = dict(model.constants)
    for role, shape in tmpl.roles:
        if shape == "DOMAIN":
            continue
        name = prefix + _CANONICAL.get(role, role)
        try:
            model.var(name)
        except KeyError:
            raise CatalogError(
                f"{model.name}: no variable {name!r} for role {role!r}")
        binding[role] = name
    for role, shape in tmpl.roles:
        if shape != "DOMAIN":
            continue
        candidates = []
        for other_role, sym in binding.items():
            sort = model.var(sym).sort
            if isinstance(sort, ir.MapSort) and sort.key in domains:
                candidates.append(sort.key)
        if not candidates:
            raise CatalogError(
                f"{model.name}: cannot infer domain for role {role!r}")
        binding[role] = candidates[0]
    return binding


def instantiate(tmpl: PrincipleTemplate, binding: dict,
                model: ir.ProtocolModel) -> ir.Property:
    """Close the schematic over a role binding, classed by the taxonomy."""
    domains = dict(model.constants)
    for role, shape in tmpl.roles:
        if role not in binding:
            raise CatalogError(f"binding missing role {role!r}")
        sym = binding[role]
        if shape == "DOMAIN":
            if sym not in domains:
                raise CatalogError(
                    f"role {role!r}: {sym!r} is not a constant domain")
            continue
        try:
            decl = model.var(sym)
        except KeyError:
            raise CatalogError(
                f"role {role!r}: {sym!r} is not a state variable")
        if _shape(decl.sort) != shape:
            raise CatalogError(
                f"role {role!r}: {sym!r} has sort {decl.sort}, "
                f"expected {shape}")
    text = tmpl.schematic
    for role, sym in binding.items():
        text = text.replace("{" + role + "}", sym)
    invariant = E.parse(text)
    cls, _note = taxonomy(model.name, tmpl.id)
    if cls == NOT_CATALOGED:
        cls = "aasm-hardening"
    return ir.Property(tmpl.property_id, tmpl.id, cls, invariant,
                       (ir.INVENTED_REF,))


def instantiate_for(model: ir.ProtocolModel, principle: str,
                    prefix: str = "") -> ir.Property:
    tmpl = template(principle)
    return instantiate(tmpl, default_binding(tmpl, model, prefix), model)


# ---------------------------------------------------------------------------
# Property taxonomy: (protocol, principle) -> (class, modality note)

_NS = "NOT_SPECIFIED"

_TAXONOMY = {
    "mcp": {
        "P1": ("spec-mandated", "MUST authenticate"),
        "P2": ("aasm-hardening", _NS),
        "P3": ("aasm-hardening", _NS),
        "P4": ("spec-mandated", "MUST sanitize"),
        "P5": ("spec-recommended", "SHOULD consent"),
        "P6": ("spec-recommended", "SHOULD log"),
        "P7": ("spec-mandated", "MUST return 401"),
        "P8": ("spec-recommended", "SHOULD expire"),
        "WF": ("aps-completeness", _NS),
        "SL": ("aps-completeness", _NS),
    },
    "a2a": {
        "P1": ("spec-recommended", "SHOULD authenticate"),
        "P2": ("aasm-hardening", "card signing optional"),
        "P3": ("aasm-hardening", _NS),
        "P4": ("aasm-hardening", _NS),
        "P5": ("aasm-hardening", _NS),
        "P6": ("aasm-hardening", _NS),
        "P7": ("aasm-hardening", _NS),
        "P8": ("spec-recommended", "SHOULD expire tokens"),
        "WF": ("spec-mandated", "MUST conform to schema"),
        "SL": ("aps-completeness", _NS),
    },
    "anp": {
        "P1": ("aasm-hardening", _NS),
        "P2": ("aasm-hardening", _NS),
        "P3": ("aasm-hardening", _NS),
        "P4": ("aasm-hardening", _NS),
        "P5": ("aasm-hardening", _NS),
        "P6": ("aasm-hardening", _NS),
        "P7": ("aasm-hardening", _NS),
        "P8": ("aasm-hardening", _NS),
        "WF": ("aps-completeness", _NS),
        "SL": ("aps-completeness", _NS),
    },
    # which 7 principles were checked for acp-cap is not public; the three
    # unchecked cells stay NOT_CATALOGED rather than guessed
    "acp-cap": {
        "P1": ("spec-mandated", "MUST authenticate"),
        "P2": ("aasm-hardening", _NS),
        "P3": (NOT_CATALOGED, ""),
        "P4": (NOT_CATALOGED, ""),
        "P5": ("spec-recommended", "SHOULD obtain consent"),
        "P6": ("aasm-hardening", _NS),
        "P7": ("aasm-hardening", _NS),
        "P8": ("spec-mandated", "MUST revoke on close"),
        "WF": (NOT_CATALOGED, ""),
        "SL": ("spec-mandated", "MUST support suspend/resume"),
    },
    "acp-client": {
        "P1": ("spec-mandated", "MUST establish session"),
        "P2": ("spec-mandated", "MUST verify fs capabilities"),
        "P3": ("aasm-hardening", _NS),
        "P4": ("aasm-hardening", _NS),
        "P5": ("spec-recommended", "MAY request permission (advisory)"),
        "P6": ("aasm-hardening", _NS),
        "P7": ("aasm-hardening", _NS),
        "P8": ("spec-recommended", "SHOULD end sessions"),
        "WF": ("spec-mandated", "MUST be valid JSON-RPC"),
        "SL": ("spec-recommended", "SHOULD report lifecycle"),
    },
}

BUNDLED_PROTOCOLS = tuple(_TAXONOMY)


def taxonomy(protocol: str, principle: str):
    """Class tag plus spec-modality note; NOT_CATALOGED when unknown."""
    row = _TAXONOMY.get(protocol)
    if row is None or principle not in row:
        return (NOT_CATALOGED, "")
    return row[principle]


# ---------------------------------------------------------------------------
# APS layer map

_LAYERS = {
    "WF": "L2",
    "SL": "L3", "P7": "L3",
    "P1": "L4", "P2": "L4", "P3": "L4", "P8": "L4",
    "P4": "L5", "P5": "L5",
    "P6": "L6",
    "CS": "cross-layer",
}

LAYER_NAMES = {
    "L1": "Transport Security",
    "L2": "Message Transport & Wire Format",
    "L3": "Session & Resilience",
    "L4": "Identity, Capability & Trust",
    "L5": "Semantic Operations & Consent",
    "L6": "Audit & Accountability",
}


def aps_layer(principle: str) -> str:
    if principle not in _LAYERS:
        raise CatalogError(f"unknown principle {principle!r}")
    return _LAYERS[principle]


# ---------------------------------------------------------------------------
# Reference document

def render_catalog() -> str:
    lines = ["# AASM principle catalog", ""]
    for t in TEMPLATES:
        lines.append(f"## {t.id} - {t.name}")
        lines.append("")
        lines.append(f"Layer: {aps_layer(t.id)}")
        lines.append("")
        lines.append("Schematic invariant:")
        lines.append("")
        lines.append(f"    {t.schematic}")
        lines.append("")
        lines.append("Roles: " + ", ".join(
            f"`{r}` ({s})" for r, s in t.roles))
        lines.append("")
        lines.append("| protocol | class | modality |")
        lines.append("|---|---|---|")
        for proto in BUNDLED_PROTOCOLS:
            cls, note = taxonomy(proto, t.id)
            lines.append(f"| {proto} | {cls} | {note or '-'} |")
        lines.append("")
    lines.append("## CS - CompositionSafety")
    lines.append("")
    lines.append("Layer: cross-layer. Instantiated over composed models by "
                 "the composer; see its pattern documentation.")
    lines.append("")
    return "\n".join(lines)
