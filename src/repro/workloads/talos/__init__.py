"""TaLoS: enclavised TLS library with the OpenSSL interface (paper §5.2.1)."""
