"""Checking decision rules against the structure of awareness.

Each rule has informational prerequisites: a reactive appliance must sense
the bus; a randomizing appliance must also hold an image of every agent's
policy; a commanded appliance needs the controller channel.  The validator
derives the wiring's polynomial and reports every missing word.

Run:  python demos/demo_awareness_validation.py
"""

from reflexgrid import RuleKind, derive_structure, validate_awareness
from reflexgrid.awareness import standard_declaration

N = 3
wirings = {
    "selfish (sense the bus only)": standard_declaration(N),
    "mutual (peer images everywhere)": standard_declaration(N, peer_awareness=True),
    "controlled (central channel)": standard_declaration(N, controller=True),
}
rules = {
    "passive": [RuleKind.PASSIVE] * N,
    "reactive": [RuleKind.REACTIVE] * N,
    "probabilistic": [RuleKind.PROBABILISTIC] * N,
    "commanded": [RuleKind.COMMANDED] * N,
}

for wname, wiring in wirings.items():
    print(f"\nwiring: {wname}")
    print(f"  structure: {derive_structure(wiring)}")
    for rname, fleet in rules.items():
        violations = validate_awareness(wiring, fleet)
        verdict = "consistent" if not violations else f"{len(violations)} missing words"
        print(f"  {rname:13s} -> {verdict}")

print("\nthe mismatch the simulator warns about, spelled out:")
for v in validate_awareness(standard_declaration(2), [RuleKind.PROBABILISTIC] * 2):
    print("  ", v)
