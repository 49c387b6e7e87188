# Certifying unextendibility structurally instead of numerically.
#
# For lifted sets the random search is overkill: the block structure of a
# lift lets us replay an exact argument.  Any matrix trace-orthogonal to
# the whole Weyl sector must be block diagonal; restricted to the diagonal
# blocks, orthogonality to the base sector forces each block into the
# complement of the base set.  If the base is unextendible, no unitary can
# hide there.  The certificate checks each link of that chain numerically
# but with exact quantities (ranks, a Vandermonde determinant) wherever
# possible, and recurses into the base.

from umeb import (
    bravyi_smolin_3,
    lift,
    structural_certify,
    umeb_6,
    weyl_family,
)


def show(label, cert):
    print(label)
    for ch in cert.checks:
        print("  %-4s %-42s detail %.6g"
              % ("PASS" if ch.passed else "FAIL", ch.name, ch.detail))
    for note in cert.notes:
        print("  note:", note)
    print("  overall:", cert.overall)
    print()


# The 30-element set is recognized as a q=2 lift of the six-element set.
show("umeb_6:", structural_certify(umeb_6()))

# A lift of a lift: the base, itself a lift, is read from the base sector
# and certified recursively down to the three-dimensional set, which is the
# only level rebuilt.  Its notes come along prefixed "base:".
show("lift(lift(bravyi_smolin_3, 2), 2):",
     structural_certify(lift(lift(bravyi_smolin_3(), 2), 2)))

# Certificates are conditional on the base by design: the six-element
# base is vouched for by its own verification plus the recorded search
# evidence, not by this replay.

# A set with no lift structure is out of scope for this certifier; that is
# a NotApplicable, not a failure.
show("weyl_family(3):", structural_certify(weyl_family(3)))
