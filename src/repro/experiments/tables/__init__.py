"""Paper-table drivers (one module per table).

Importing the package imports no driver: :mod:`..catalog` imports each
table's module when its id is looked up.
"""

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table7",
    "table8",
    "table9",
    "table10",
]
