"""Dynamic-loader model with ``LD_PRELOAD``-style symbol shadowing.

sgx-perf's event logger is a shared library preloaded into the untrusted
application: the dynamic linker resolves symbols like ``sgx_ecall`` to the
logger's implementation *before* the real URTS, letting the logger intercept
every call without recompiling anything (paper §4, Figure 2).

This module reproduces that mechanism.  Libraries register symbols; lookup
walks preloaded libraries first, then regularly loaded ones, in load order.
A shadowing implementation can itself resolve the *next* provider of the
symbol (the moral equivalent of ``dlsym(RTLD_NEXT, ...)``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional


class SymbolNotFound(LookupError):
    """No loaded library provides the requested symbol."""


class Library:
    """A shared library: a name plus a symbol table."""

    def __init__(self, name: str, symbols: Optional[dict[str, Callable]] = None) -> None:
        self.name = name
        self._symbols: dict[str, Callable] = dict(symbols or {})
        # Loaders whose search order holds this library (once per load):
        # a new definition can change what they resolve.
        self._loaders: list[Loader] = []

    def provides(self, symbol: str) -> bool:
        """Whether this library defines ``symbol``."""
        return symbol in self._symbols

    def symbol(self, name: str) -> Callable:
        """Return the implementation of ``name`` from this library."""
        try:
            return self._symbols[name]
        except KeyError:
            raise SymbolNotFound(f"{self.name} does not provide {name!r}") from None

    def define(self, name: str, impl: Callable) -> None:
        """Add (or replace) a symbol definition in this library."""
        self._symbols[name] = impl
        for loader in self._loaders:
            loader.generation += 1

    def symbols(self) -> Iterable[str]:
        """Names of all symbols this library defines."""
        return self._symbols.keys()

    def __repr__(self) -> str:
        return f"Library({self.name!r}, {len(self._symbols)} symbols)"


class Loader:
    """Symbol resolution with preload precedence.

    Resolution order is: preloaded libraries (in preload order), then
    normally loaded libraries (in load order) — exactly the search order the
    ELF dynamic linker uses with ``LD_PRELOAD``.  :attr:`generation` counts
    the changes that can move a resolution, so a caller may keep what it
    resolved until the count moves.
    """

    def __init__(self) -> None:
        self._preloaded: list[Library] = []
        self._loaded: list[Library] = []
        # Bumped whenever a resolution may change: the search order
        # changes or a library in it defines a symbol.  A caller that
        # keeps a resolved symbol resolves it again when this moves.
        self.generation = 0

    def preload(self, library: Library) -> None:
        """Register ``library`` ahead of everything loaded normally."""
        self._preloaded.append(library)
        self._register(library)

    def load(self, library: Library) -> None:
        """Register ``library`` at the end of the normal search order."""
        self._loaded.append(library)
        self._register(library)

    def unload(self, library: Library) -> None:
        """Remove ``library`` from the search order (``dlclose`` analogue)."""
        if library in self._preloaded:
            self._preloaded.remove(library)
        elif library in self._loaded:
            self._loaded.remove(library)
        else:
            raise SymbolNotFound(f"library {library.name!r} is not loaded")
        library._loaders.remove(self)
        self.generation += 1

    def _register(self, library: Library) -> None:
        library._loaders.append(self)
        self.generation += 1

    def _search_order(self) -> list[Library]:
        return self._preloaded + self._loaded

    def resolve(self, symbol: str) -> Callable:
        """Resolve ``symbol`` to its first provider's implementation.

        The search order is walked in place, one symbol-table lookup per
        library.
        """
        for libraries in (self._preloaded, self._loaded):
            for library in libraries:
                impl = library._symbols.get(symbol)
                if impl is not None:
                    return impl
        raise SymbolNotFound(f"unresolved symbol {symbol!r}")

    def resolve_next(self, symbol: str, after: Library) -> Callable:
        """Resolve ``symbol`` skipping providers up to and including ``after``.

        This is the ``dlsym(RTLD_NEXT, symbol)`` analogue an interposing
        library uses to chain to the real implementation.
        """
        order = self._search_order()
        try:
            start = order.index(after) + 1
        except ValueError:
            raise SymbolNotFound(f"library {after.name!r} is not loaded") from None
        for library in order[start:]:
            if library.provides(symbol):
                return library.symbol(symbol)
        raise SymbolNotFound(f"no provider of {symbol!r} after {after.name}")

    def call(self, symbol: str, *args: Any, **kwargs: Any) -> Any:
        """Resolve and invoke ``symbol`` in one step."""
        return self.resolve(symbol)(*args, **kwargs)

    def providers(self, symbol: str) -> list[str]:
        """Names of all libraries providing ``symbol``, in search order."""
        return [lib.name for lib in self._search_order() if lib.provides(symbol)]
