# Hunting for an extension: nuclear-norm ascent over the complement.
#
# A candidate set is extendible exactly when some unitary lives in the
# trace-orthogonal complement of its span.  Among complement matrices M
# with squared Frobenius norm d, the nuclear norm (sum of singular values)
# is at most d, with equality only at unitaries.  So the search maximizes
# the nuclear norm by alternating projections:
#
#     M  <-  sqrt(d) * normalize( project_complement( polar(M) ) )
#
# Each step is a strict ascent, so every restart trace is non-decreasing.
# The verdicts are asymmetric: ExtensionFound hands back a concrete unitary
# witness; NoExtensionFound only says the ascent never got within tolerance
# of nuclear norm d.

import numpy as np

from umeb import (
    External,
    UMEBCandidate,
    bravyi_smolin_3,
    hs_inner,
    search_extension,
    unitarity_residual,
)

# --- The full six-element set resists extension ------------------------------

bs3 = bravyi_smolin_3()
res = search_extension(bs3, restarts=100, iters=500, seed=0)
print("full set verdict:      %s" % res.verdict)
print("best nuclear norm:     %.12f   (d = 3)" % res.best_nuclear_norm)
print("gap d - nuclear norm:  %.10f" % res.gap)
print("complement dimension:  %d" % res.complement_dim)
# iters is a cap: a restart stops once a step no longer moves its matrix.
print("ascent SVDs taken:     %d   (restarts x iters = %d)"
      % (sum(map(len, res.objective_traces)), res.restarts * res.iters))
print()

# The best objective converges to sqrt(6) ~ 2.449: the flat part of the
# complement geometry simply cannot reach nuclear norm 3.  The gap is the
# quantitative evidence of unextendibility.

# --- Every restart trace is monotone ------------------------------------------

worst_step = min(np.diff(np.asarray(t)).min() for t in res.objective_traces
                 if len(t) > 1)
print("smallest single-step objective change over all restarts: %.2e"
      % worst_step)
print()

# --- Drop one element and the verdict flips -----------------------------------

kept = bs3.elements[1:]
sub = UMEBCandidate(3, kept, External("five of the six"))
found = search_extension(sub, restarts=8, iters=1500, seed=0)
print("five-element verdict:  %s" % found.verdict)
print("witness unitarity residual:  %.2e"
      % unitarity_residual(found.extension))
print("witness overlap with the kept five: %.2e"
      % max(abs(hs_inner(u, found.extension)) for u in kept))
for note in found.notes:
    print("note:", note)

# The recovered witness is (up to phase) the dropped element's direction in
# the complement; the ascent plus a local refinement pins it to a unitary
# to near machine precision.
