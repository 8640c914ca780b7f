"""The paper's figures and tables, regenerated at the ``figures`` scale.

Each test runs one claim of :data:`repro.experiments.claims.CLAIMS`
once (the experiments are deterministic simulations), prints the
markdown ``repro report`` writes for it, and asserts the *shape* of the
result (who wins, direction of change), not absolute numbers: every
verdict its shape function yields must hold.
"""

import pytest

from repro.experiments.claims import CLAIMS


@pytest.mark.parametrize("claim", [c for c in CLAIMS if c.figures is not None],
                         ids=lambda claim: claim.name)
def test_claim(claim):
    result = claim.run(claim.figures)
    for section in claim.sections(result):
        print(f"\n## {section.title}\n\n{section.body}")
    missed = [bound for holds, bound in claim.shape(result) if not holds]
    assert not missed, f"{claim.name} misses the paper's shape: {missed}"
