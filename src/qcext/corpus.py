"""Builtin map corpus for the command-line driver and the sweep tests.

Each entry couples a parameterized expression template with the claims that
ship with it: the extension theorem that applies (and with it the class
criterion), the chain kind that reproduces the extension, and the
dilatation bound.  Negative controls are listed with the same machinery and
are expected to fail their pipelines.

Parameter substitution happens on the text level: values are rendered with
const_text and spliced into the template, and the resulting plain grammar
string is the single source of truth echoed in reports.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from .classifiers import ClassParams
from .mapexpr import const_text

ParamMap = Mapping[str, complex]

# the class criterion each extension theorem assumes
THEOREM_CLASS = {
    "t1": "U_lambda",
    "t2": "U_lambda",
    "t3": "V_p_lambda",
    "t4": "M_Ug",
    "cor1": "M_corollary1",
    "brown": "brown",
    "t5": "thm5",
    "krzyz": "M_krzyz_decay",
    "convex": "U_lambda",
    "psi": "U_lambda",
}
THEOREMS = tuple(THEOREM_CLASS)


def theorem_class(theorem: str, params: ParamMap) -> Optional[str]:
    """The class criterion a theorem assumes for a map with these parameters.

    The psi route with a pole p extends p z/(p - z), which lies in
    V_p_lambda, not in the U_lambda its unimodular route assumes."""
    if theorem == "psi" and "p" in params:
        return "V_p_lambda"
    return THEOREM_CLASS.get(theorem)


def class_params_for(theorem: str, params: ParamMap) -> ClassParams:
    """The criterion parameters a map's own parameters name."""
    kw = {}
    if "lambda" in params:
        kw["lam"] = params["lambda"].real
    if "k" in params:
        kw["k"] = abs(params["k"])
    if "p" in params:
        kw["p"] = params["p"].real
    if "lam" in params and theorem == "brown":
        kw["brown_lambda"] = params["lam"]
    return ClassParams(**kw)


@dataclass(frozen=True)
class BuiltinExample:
    id: str
    template: str
    defaults: Tuple[Tuple[str, complex], ...]
    theorem: str
    chain: Optional[str] = None
    negative: bool = False
    # chain input when it differs from the map itself (the decay family
    # drives its chain by w, not by g)
    chain_template: Optional[str] = None
    slots: Optional[Callable[[dict], dict]] = field(
        default=None, compare=False, repr=False
    )
    k_of: Optional[Callable[[dict], float]] = field(
        default=None, compare=False, repr=False
    )
    # criterion parameters, where they depart from the theorem's
    cls_of: Optional[Callable[[dict], ClassParams]] = field(
        default=None, compare=False, repr=False
    )

    def params(self, overrides: Optional[ParamMap] = None) -> Dict[str, complex]:
        out = {name: complex(val) for name, val in self.defaults}
        for name, val in (overrides or {}).items():
            if name not in out:
                raise ValueError(f"builtin {self.id!r} has no parameter {name!r}")
            out[name] = complex(val)
        return out

    def _slot_text(self, params: Dict[str, complex]) -> Dict[str, str]:
        raw = dict(params)
        if self.slots is not None:
            raw.update(self.slots(params))
        return {name: const_text(val) for name, val in raw.items()}

    def text(self, overrides: Optional[ParamMap] = None) -> str:
        return self.template.format_map(self._slot_text(self.params(overrides)))

    def chain_text(self, overrides: Optional[ParamMap] = None) -> str:
        tpl = self.chain_template or self.template
        return tpl.format_map(self._slot_text(self.params(overrides)))

    def expected_k(self, overrides: Optional[ParamMap] = None) -> Optional[float]:
        if self.k_of is None:
            return None
        return float(self.k_of(self.params(overrides)))

    def class_params(self, overrides: Optional[ParamMap] = None) -> ClassParams:
        p = self.params(overrides)
        return class_params_for(self.theorem, p) if self.cls_of is None else self.cls_of(p)


def _example1_slots(p: Dict[str, complex]) -> Dict[str, complex]:
    lam = p["lambda"]
    rot = cmath.exp(1j * p["theta"].real)
    return {"c1": (1.0 + lam) * rot, "c2": lam * rot * rot}


BUILTINS: Dict[str, BuiltinExample] = {
    b.id: b
    for b in (
        BuiltinExample(
            id="identity",
            template="z",
            defaults=(),
            theorem="t2",
            chain="thm2",
            k_of=lambda p: 0.0,
        ),
        BuiltinExample(
            id="example1",
            template="z/(1-{c1}*z+{c2}*z^2)",
            defaults=(("lambda", 0.5 + 0j), ("theta", 0j)),
            theorem="t1",
            slots=_example1_slots,
            k_of=lambda p: p["lambda"].real,
        ),
        BuiltinExample(
            id="example2",
            template="z/(1+{lambda}*z^2)",
            defaults=(("lambda", 0.5 + 0j),),
            theorem="t2",
            chain="thm2",
            k_of=lambda p: p["lambda"].real,
        ),
        BuiltinExample(
            id="example3",
            template="{p}*z/(({p}-z)*(1-{lp}*z))",
            defaults=(("p", 0.5 + 0j), ("lambda", 0.5 + 0j)),
            theorem="t3",
            slots=lambda p: {"lp": p["lambda"] * p["p"]},
            k_of=lambda p: p["lambda"].real,
        ),
        BuiltinExample(
            id="koebe",
            template="z/(1-z)^2",
            defaults=(),
            theorem="t1",
            negative=True,
            cls_of=lambda p: ClassParams(lam=0.999),
        ),
        BuiltinExample(
            id="kp",
            template="{p}*z/(({p}-z)*(1-{p}*z))",
            defaults=(("p", 0.5 + 0j),),
            theorem="t3",
            negative=True,
        ),
        BuiltinExample(
            id="mobius",
            template="z/(1-{a2}*z)",
            defaults=(("a2", 0.5 + 0j), ("M", 2.0 + 0j)),
            theorem="convex",
            chain="convex",
            k_of=lambda p: abs(p["a2"]),
        ),
        BuiltinExample(
            id="p_mobius",
            template="{p}*z/({p}-z)",
            defaults=(("p", 0.5 + 0j), ("M", 2.0 + 0j)),
            theorem="psi",
            k_of=lambda p: (abs(p["M"]) ** 2 - 1.0) / (abs(p["M"]) ** 2 + 1.0),
        ),
        BuiltinExample(
            id="krzyz",
            template="z+{k}/z",
            defaults=(("k", 0.5 + 0j),),
            theorem="krzyz",
            chain="krzyz",
            chain_template="{k}*z",
            k_of=lambda p: abs(p["k"]),
        ),
        BuiltinExample(
            id="exterior_u",
            template="z+{b}/z",
            defaults=(("b", 0.12 + 0j),),
            theorem="t4",
            chain="eq7a1",
        ),
        BuiltinExample(
            id="exterior_pole",
            template="z^2/({c}-z)",
            defaults=(("c", 0.3 + 0j),),
            theorem="cor1",
            chain="cor1",
            cls_of=lambda p: ClassParams(k=0.75),
        ),
        BuiltinExample(
            id="brown_quad",
            template="z-{c}*z^2",
            defaults=(("c", 0.25 + 0j), ("lam", 1.0 + 0j)),
            theorem="brown",
        ),
        BuiltinExample(
            id="neg_deriv",
            template="-z+{c}*z^2",
            defaults=(("c", 0.3 + 0j),),
            theorem="t5",
            chain="t5",
            k_of=lambda p: 2.0 * abs(p["c"]),
            cls_of=lambda p: ClassParams(k=min(2.0 * abs(p["c"]), 0.999)),
        ),
    )
}


def builtin_ids() -> Tuple[str, ...]:
    return tuple(BUILTINS)


def get_builtin(bid: str) -> BuiltinExample:
    try:
        return BUILTINS[bid]
    except KeyError:
        raise ValueError(
            f"unknown builtin {bid!r}; choose from {', '.join(BUILTINS)}"
        ) from None
