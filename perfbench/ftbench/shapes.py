"""The shapes and configs each workload uses."""

#: ``Client.transform``'s default config, and the library default.
DEFAULT_CONFIG = "opt-online+mem"
NATIVE_CONFIG = "opt-online+mem+native"

SERVE_SIZES = (256, 1024, 4096)

#: (tag, n, config, calls per round) single-vector ``FTPlan.execute``
#: shapes of bulk-large: 2^16 points is 1 MiB (inside L2), 2^20 is 16 MiB
#: (beyond L2, inside the 300 MiB L3 of the reference host).  The calls per
#: round give each shape a comparable share of the round's time.
BULK_SINGLE = (
    ("n65536", 1 << 16, DEFAULT_CONFIG, 16),
    ("n65536-native", 1 << 16, NATIVE_CONFIG, 16),
    ("n1048576", 1 << 20, DEFAULT_CONFIG, 1),
    ("n1048576-native", 1 << 20, NATIVE_CONFIG, 1),
)
#: (tag, rows, n, config, calls per round) ``FTPlan.execute_many`` shape.
BULK_BATCH = ("b64x4096", 64, 4096, DEFAULT_CONFIG, 4)

FAULT_SIZES = (1024, 4096)
FAULT_BATCH_ROWS = 8
