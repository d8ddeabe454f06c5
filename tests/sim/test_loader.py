"""Dynamic loader with LD_PRELOAD shadowing."""

import pytest

from repro.sim.loader import Library, Loader, SymbolNotFound


def test_resolve_from_loaded_library():
    loader = Loader()
    loader.load(Library("libc", {"write": lambda: "libc-write"}))
    assert loader.resolve("write")() == "libc-write"


def test_preload_shadows_loaded():
    loader = Loader()
    loader.load(Library("urts", {"sgx_ecall": lambda: "real"}))
    loader.preload(Library("logger", {"sgx_ecall": lambda: "shadow"}))
    assert loader.resolve("sgx_ecall")() == "shadow"


def test_resolve_next_skips_interposer():
    loader = Loader()
    logger = Library("logger", {"sgx_ecall": lambda: "shadow"})
    loader.preload(logger)
    loader.load(Library("urts", {"sgx_ecall": lambda: "real"}))
    assert loader.resolve_next("sgx_ecall", logger)() == "real"


def test_resolve_next_chain_of_interposers():
    loader = Loader()
    first = Library("first", {"f": lambda: "first"})
    second = Library("second", {"f": lambda: "second"})
    loader.preload(first)
    loader.preload(second)
    loader.load(Library("base", {"f": lambda: "base"}))
    assert loader.resolve("f")() == "first"
    assert loader.resolve_next("f", first)() == "second"
    assert loader.resolve_next("f", second)() == "base"


def test_unresolved_symbol_raises():
    with pytest.raises(SymbolNotFound):
        Loader().resolve("nope")


def test_resolve_next_unknown_library_raises():
    loader = Loader()
    with pytest.raises(SymbolNotFound):
        loader.resolve_next("f", Library("ghost"))


def test_unload_restores_original():
    loader = Loader()
    logger = Library("logger", {"f": lambda: "shadow"})
    loader.load(Library("base", {"f": lambda: "base"}))
    loader.preload(logger)
    assert loader.resolve("f")() == "shadow"
    loader.unload(logger)
    assert loader.resolve("f")() == "base"


def test_unload_unknown_raises():
    with pytest.raises(SymbolNotFound):
        Loader().unload(Library("ghost"))


def test_providers_in_search_order():
    loader = Loader()
    loader.preload(Library("a", {"f": lambda: 1}))
    loader.load(Library("b", {"f": lambda: 2}))
    loader.load(Library("c", {"g": lambda: 3}))
    assert loader.providers("f") == ["a", "b"]


def test_call_shortcut():
    loader = Loader()
    loader.load(Library("lib", {"add": lambda a, b: a + b}))
    assert loader.call("add", 2, 3) == 5


def test_library_define_and_symbols():
    lib = Library("lib")
    lib.define("x", lambda: 1)
    assert lib.provides("x")
    assert "x" in list(lib.symbols())
    with pytest.raises(SymbolNotFound):
        lib.symbol("y")


def test_generation_moves_with_every_change_a_resolution_sees():
    loader = Loader()
    seen = [loader.generation]

    def moved() -> bool:
        seen.append(loader.generation)
        return seen[-1] != seen[-2]

    urts = Library("urts", {"f": lambda: "real"})
    shim = Library("shim")
    shim.define("g", lambda: 0)  # not loaded anywhere yet
    assert not moved()
    loader.load(urts)
    assert moved()
    loader.preload(shim)
    assert moved()
    shim.define("f", lambda: "shadow")
    assert moved() and loader.resolve("f")() == "shadow"
    loader.unload(shim)
    assert moved() and loader.resolve("f")() == "real"
    shim.define("f", lambda: "again")  # unloaded: no resolution changes
    assert not moved()
