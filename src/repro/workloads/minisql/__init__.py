"""minisql: the SQLite-analogue embedded SQL engine (paper §5.2.2)."""
