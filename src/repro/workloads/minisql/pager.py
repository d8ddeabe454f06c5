"""Page cache and rollback journal of the minisql engine.

SQLite-style transactional paging: before a page is first modified inside
a transaction its original content is appended to a rollback journal;
commit syncs the journal, writes dirty pages back to the database file,
syncs it, then invalidates the journal (truncate-mode).  Crash recovery
replays journalled originals.

Every journal append and every dirty-page write-back is a positioned write
through the VFS — which in the naïve enclave build means a *pair* of
lseek+write ocalls per page (paper §5.2.2).
"""

from __future__ import annotations

from typing import Optional

from repro.workloads.minisql.vfs import Vfs

PAGE_SIZE = 4096
JOURNAL_HEADER = b"minisql-journal\x00"
JOURNAL_HEADER_SIZE = 512


class PagerError(RuntimeError):
    """Transactional misuse or corrupted journal."""


class Pager:
    """Transactional page store over a VFS."""

    def __init__(
        self,
        vfs: Vfs,
        path: str,
        cache_pages: int = 256,
        sync_mode: str = "normal",
    ) -> None:
        if sync_mode not in ("normal", "full"):
            raise PagerError(f"bad sync_mode {sync_mode!r}")
        self.vfs = vfs
        self.path = path
        self.journal_path = path + "-journal"
        self.cache_pages = cache_pages
        # SQLite's synchronous pragma: "full" also fsyncs the journal
        # before the page write-back; "normal" only fsyncs the database.
        self.sync_mode = sync_mode
        self._db = vfs.open(path)
        self._journal: Optional[int] = None
        self._cache: dict[int, bytearray] = {}
        self._dirty: set[int] = set()
        self._journalled: set[int] = set()
        self._journal_records = 0
        self._in_txn = False
        self._page_count = max(1, (vfs.size(self._db) + PAGE_SIZE - 1) // PAGE_SIZE)
        self.stats = {"reads": 0, "writes": 0, "journal_writes": 0, "commits": 0}
        self._recover_if_needed()

    # -- page access ------------------------------------------------------------

    def allocate_page(self) -> int:
        """Extend the database by one page; returns its number."""
        page_no = self._page_count
        self._page_count += 1
        self._cache[page_no] = bytearray(PAGE_SIZE)
        self._dirty.add(page_no)
        if self._in_txn:
            self._journalled.add(page_no)  # fresh page: nothing to journal
        return page_no

    def get(self, page_no: int) -> bytearray:
        """Fetch a page (through the cache) for reading."""
        if page_no >= self._page_count:
            raise PagerError(f"page {page_no} beyond end ({self._page_count})")
        page = self._cache.get(page_no)
        if page is None:
            raw = self.vfs.read(self._db, page_no * PAGE_SIZE, PAGE_SIZE)
            page = bytearray(raw.ljust(PAGE_SIZE, b"\x00"))
            self._evict_if_needed()
            self._cache[page_no] = page
            self.stats["reads"] += 1
        return page

    def get_writable(self, page_no: int) -> bytearray:
        """Fetch a page for modification (journalling it first if in a txn)."""
        page = self.get(page_no)
        if self._in_txn and page_no not in self._journalled:
            self._journal_page(page_no, page)
        self._dirty.add(page_no)
        return page

    def _evict_if_needed(self) -> None:
        while len(self._cache) >= self.cache_pages:
            victim = next(
                (p for p in self._cache if p not in self._dirty), None
            )
            if victim is None:
                return  # everything dirty: cache grows until commit
            del self._cache[victim]

    # -- transactions ---------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """Whether a transaction is open."""
        return self._in_txn

    def begin(self) -> None:
        """Open a transaction and its rollback journal."""
        if self._in_txn:
            raise PagerError("transaction already open")
        self._in_txn = True
        self._journalled.clear()
        self._journal_records = 0

    def _ensure_journal(self) -> int:
        if self._journal is None:
            self._journal = self.vfs.open(self.journal_path)
            header = JOURNAL_HEADER + self.path.encode()[: JOURNAL_HEADER_SIZE - 16]
            self.vfs.write(self._journal, 0, header.ljust(JOURNAL_HEADER_SIZE, b"\x00"))
            self.stats["journal_writes"] += 1
        return self._journal

    def _journal_page(self, page_no: int, content: bytearray) -> None:
        journal = self._ensure_journal()
        record = page_no.to_bytes(4, "big") + bytes(content)
        offset = JOURNAL_HEADER_SIZE + self._journal_records * (4 + PAGE_SIZE)
        self.vfs.write(journal, offset, record)
        self._journalled.add(page_no)
        self._journal_records += 1
        self.stats["journal_writes"] += 1

    def commit(self) -> None:
        """Durably apply the transaction (journal sync, page writes, db sync)."""
        if not self._in_txn:
            raise PagerError("no open transaction")
        if self._dirty:
            if self._journal is not None and self.sync_mode == "full":
                self.vfs.sync(self._journal)
            for page_no in sorted(self._dirty):
                self.vfs.write(self._db, page_no * PAGE_SIZE, bytes(self._cache[page_no]))
                self.stats["writes"] += 1
            self.vfs.sync(self._db)
            if self._journal is not None:
                # Truncate-mode journal invalidation (cheaper than unlink).
                self.vfs.truncate(self._journal, 0)
        self._dirty.clear()
        self._journalled.clear()
        self._journal_records = 0
        self._in_txn = False
        self.stats["commits"] += 1

    def rollback(self) -> None:
        """Discard the transaction, restoring journalled pages."""
        if not self._in_txn:
            raise PagerError("no open transaction")
        for page_no in self._dirty:
            self._cache.pop(page_no, None)
        self._dirty.clear()
        self._journalled.clear()
        self._journal_records = 0
        self._in_txn = False
        # Journalled originals are still on disk in the db file (we never
        # wrote dirty pages), so dropping the cache suffices; invalidate.
        if self._journal is not None:
            self.vfs.truncate(self._journal, 0)
        self._page_count = max(1, (self.vfs.size(self._db) + PAGE_SIZE - 1) // PAGE_SIZE)

    def _recover_if_needed(self) -> None:
        """Replay a hot journal left behind by a crash."""
        journal = self.vfs.open(self.journal_path)
        try:
            size = self.vfs.size(journal)
            if size <= JOURNAL_HEADER_SIZE:
                return
            header = self.vfs.read(journal, 0, len(JOURNAL_HEADER))
            if header != JOURNAL_HEADER:
                return
            offset = JOURNAL_HEADER_SIZE
            while offset + 4 + PAGE_SIZE <= size:
                record = self.vfs.read(journal, offset, 4 + PAGE_SIZE)
                page_no = int.from_bytes(record[:4], "big")
                self.vfs.write(self._db, page_no * PAGE_SIZE, record[4:])
                offset += 4 + PAGE_SIZE
            self.vfs.sync(self._db)
            self.vfs.truncate(journal, 0)
            self._cache.clear()
            self._page_count = max(
                1, (self.vfs.size(self._db) + PAGE_SIZE - 1) // PAGE_SIZE
            )
        finally:
            self.vfs.close(journal)

    def close(self) -> None:
        """Flush nothing (caller must commit) and close files."""
        if self._in_txn:
            raise PagerError("close with open transaction")
        self.vfs.close(self._db)
        if self._journal is not None:
            self.vfs.close(self._journal)
            self._journal = None
