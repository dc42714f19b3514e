"""Degree-r cochains with symbols: evaluation, bracket, wedge, towers."""

from courantalg import (
    Backend,
    Cochain,
    MetricModule,
    ModuleElement,
    Poly,
    cbracket,
    cmap_verify,
    cmap_wedge,
    insert,
    symbol_tower,
)

backend = Backend.free(0)
one, zero = Poly.one(backend), Poly.zero(backend)
module = MetricModule(backend, [[one if i == j else zero for j in range(3)] for i in range(3)])

# the cross-product table with vanishing symbol over Q
eps3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
values = {}
for i in range(3):
    for j in range(3):
        values[(i, j)] = ModuleElement(
            module, [Poly.const(backend, eps3.get((i, j, k), 0)) for k in range(3)]
        )
m = Cochain.from_tables(module, 3, values)

ok, report = cmap_verify(m)
print("cross-product table is a degree-3 cochain:", ok, "(probe bound %d)" % report["bound"])
print("m(e1, e2) =", m(module.basis(0), module.basis(1)))
print("[m, m] vanishes (the structure equation):", cbracket(m, m).is_zero())

sliced = insert(m, module.basis(0))
print("\ni_{e1} m applied to e2:", sliced(module.basis(1)))

x = Cochain.from_module_element(module.basis(0))
y = Cochain.from_module_element(module.basis(1))
w_rec = cmap_wedge(x, y, "recursive")
w_shu = cmap_wedge(x, y, "shuffle")
print("\nwedge via recursion equals wedge via shuffles:", w_rec == w_shu)
print("(e1 ^ e2)(e1) =", w_rec(module.basis(0)))

print("\nomega(e1, e2, e3) =", m.omega((module.basis(0), module.basis(1), module.basis(2))))
levels = symbol_tower(m)
print("tower levels (sizes):", {p: len(levels.get(p, {})) for p in range(2)})
