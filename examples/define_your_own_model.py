"""Extensibility: define a brand-new data model as *data*.

The paper's goal is a parser/optimizer component "independent of any
specific data model": one writes a concise specification and the component
accepts programs against it.  This example defines a tiny key-value model
(not shipped with the library) purely from a specification string plus
implementation functions, then runs programs against it — including a
textual optimization rule.

Run:  python examples/define_your_own_model.py
"""

from repro.catalog import Database
from repro.core.algebra import SecondOrderAlgebra
from repro.core.operators import AttributeFamily
from repro.core.sos import SignatureBuilder
from repro.core.types import TypeApp
from repro.spec import parse_spec
from repro.system import SOSSystem

KV_SPEC = """
kinds IDENT, DATA, KV

type constructors
    -> IDENT                 ident
    -> DATA                  int, string, bool
    DATA x DATA -> KV        kvmap

operators
    forall data in DATA.
        data x data -> bool          =       syntax ( _ # _ )
    forall kv: kvmap(k, v) in KV.
        -> kv                        empty
        kv x k x v ~> kv             put
        kv x k -> v                  get     syntax _ #[ _ ]
        kv x k -> bool               has     syntax _ #[ _ ]
        kv -> int                    size    syntax _ #
"""


class KVMap(dict):
    """Carrier of kvmap(k, v): a plain dict."""


def build_kv_system() -> SOSSystem:
    impls = {
        "=": lambda ctx, a, b: a == b,
        "empty": lambda ctx: KVMap(),
        "put": lambda ctx, kv, k, v: (kv.__setitem__(k, v), kv)[1],
        "get": lambda ctx, kv, k: kv[k],
        "has": lambda ctx, kv, k: k in kv,
        "size": lambda ctx, kv: len(kv),
    }
    builder = SignatureBuilder()
    sos = parse_spec(KV_SPEC, builder=builder, impls=impls)
    algebra = SecondOrderAlgebra(sos)
    algebra.register_carrier("int", lambda a, v, t: isinstance(v, int))
    algebra.register_carrier("string", lambda a, v, t: isinstance(v, str))
    algebra.register_carrier("bool", lambda a, v, t: isinstance(v, bool))
    algebra.register_carrier("kvmap", lambda a, v, t: isinstance(v, KVMap))
    return SOSSystem(Database(sos, algebra))


def main() -> None:
    interp = build_kv_system()
    interp.run(
        """
type prices = kvmap(string, int)
create shop : prices
update shop := put(shop, "apple", 3)
update shop := put(shop, "pear", 5)
"""
    )
    print('query shop get["apple"] =', interp.run_one('query shop get["apple"]').value)
    print('query shop has["plum"]  =', interp.run_one('query shop has["plum"]').value)
    print("query shop size         =", interp.run_one("query shop size").value)

    # The typechecker enforces the key/value types from the specification:
    try:
        interp.run_one('update shop := put(shop, 7, 9)')
    except Exception as exc:  # NoMatchingOperator
        print("type error caught:", type(exc).__name__)


if __name__ == "__main__":
    main()
