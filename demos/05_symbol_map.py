"""The symbol calculus: an isomorphism in degrees <= 3, a proper inclusion in
degree 4 over the dual numbers."""

from courantalg import (
    Backend,
    Connection,
    MetricModule,
    MultiDerivation,
    Poly,
    RothElement,
    apply_J,
    chat_membership,
    cmap_verify,
    invert_J_deg3,
    lambda_check,
)
from courantalg.cmaps import quartic_from_biderivation

# free backend: the map J is injective and degree 3 inverts exactly
backend = Backend.free(1, ("x",))
one, zero = Poly.one(backend), Poly.zero(backend)
module = MetricModule(backend, [[zero, one], [one, zero]])
conn = Connection.flat(module)

theta = RothElement(module, {((0,), (1,)): Poly.const(backend, -1)})
m = apply_J(theta, conn)
print("J(theta) degree:", m.degree)
print("round trip through the degree-3 inversion:", invert_J_deg3(m, conn) == theta)

# dual numbers: the symmetric-square direction is invisible to the map
dual = Backend.dual()
eps = Poly.var(dual, 0)
dmodule = MetricModule(dual, [[Poly.one(dual)]])
dconn = Connection.flat(dmodule)

s2 = RothElement.monomial(dmodule, (0, 0), ())
print("\nepsd v epsd is nonzero:", not s2.is_zero())
print("its image vanishes:", apply_J(s2, dconn).is_zero())
print("lambda probe detects the kernel:", not lambda_check(s2, dconn))

# ...while the complex itself contains a genuine degree-4 element there
P = MultiDerivation(dual, 2, {(0, 0): eps})
bad = quartic_from_biderivation(dmodule, P)
print("\nquartic from the biderivation passes verification:", cmap_verify(bad)[0])
res = chat_membership(bad, dconn)
print("membership in the image:", res["member"], "(conclusive: %s)" % res["conclusive"])
print("certificate:", res["certificate"])
