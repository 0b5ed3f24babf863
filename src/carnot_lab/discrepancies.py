"""Versioned notes on formula variants this library deliberately settles.

Derivations circulating for these constructions disagree on a few points.
Each entry records the competing statements, what direct computation
gives, and which choice the library implements; the verification suite
cites entries by id so the resolutions stay regression-tested.
"""

LEDGER_VERSION = 1

ENTRIES = {
    "embed-commutator-central-entry": {
        "claim": "the group commutator of two scalar embeddings S(x), S(y) "
                 "has central entry -2xy, witnessing non-commutativity of "
                 "the embedded line",
        "computed": "S(x) S(y) is symmetric in x and y (both off-diagonal "
                    "slots carry x+y, the corner carries x+y+xy), so the "
                    "commutator [S(x), S(y)] is exactly the identity; the "
                    "general commutator has central entry a1*c2 - c1*a2, "
                    "nonzero only when the off-diagonal entries differ",
        "resolution": "trust the dense matrix product: commutator of equal "
                      "off-diagonal embeddings is the identity; ambient "
                      "non-commutativity is exhibited on generic elements",
        "tests": ["embed commutator oracle sweep (criterion 5)"],
    },
    "blowup-limit-direction": {
        "claim": "the blow-up derivative is stated abstractly as a t -> "
                 "infinity limit of dilation-conjugated differences",
        "computed": "the worked diagonal example evaluates the same "
                    "conjugated quotient and takes t -> 0+, where it "
                    "reproduces the classical derivative",
        "resolution": "standardize on the t -> 0+ limit; it is the "
                      "convention the checkable examples satisfy",
        "tests": ["diagonal blow-up vs finite differences (criterion 11)"],
    },
    "central-dilation-convention": {
        "claim": "blow-up quotients are sometimes written with all three "
                 "source coordinates dilated linearly in t",
        "computed": "the group dilation scales the central coordinate by "
                    "t^2; with it, the central entry of the identity map's "
                    "blow-up collapses to 0, while the linear variant "
                    "keeps it 1",
        "resolution": "implement both behind a convention switch; graded "
                      "is the default, linear reproduces the alternative "
                      "formula verbatim",
        "tests": ["identity-map blow-up under both conventions"],
    },
    "quotient-at-zero": {
        "claim": "entries of the blow-up derivative at the group identity "
                 "are q-difference derivatives evaluated at 0",
        "computed": "the q-difference quotient at 0 is degenerate (t*0 = "
                    "0 gives 0/0); the blow-up entries at the identity are "
                    "the quotients fn(t)/t, i.e. difference quotients "
                    "anchored at 0, not q-difference quotients at 0",
        "resolution": "expose the fixed-t Jackson quotient at a nonzero "
                      "point and the blow-up quotient separately; no "
                      "equality at 0 is asserted",
        "tests": ["Jackson quotient of the moment function vs -S_q"],
    },
}


def entries_for(command: str):
    """Ids of ledger entries exercised by a CLI command."""
    touched = {
        "group": ["embed-commutator-central-entry"],
        "pansu": ["blowup-limit-direction", "central-dilation-convention",
                  "quotient-at-zero"],
        "verify-all": sorted(ENTRIES),
    }
    return touched.get(command, [])
