"""Tooling guard: the README's config-key table names exactly the keys the
CLI accepts, so the table cannot drift when a key is added or removed."""
import pathlib
import re

from esgain import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| key | type | default | read by |"


def readme_config_keys() -> list:
    """The keys in the first column of the table, in order; a `.name`
    shorthand replaces the last part of the key before it."""
    lines = README.read_text().splitlines()
    keys = []
    for line in lines[lines.index(HEADER) + 2:]:
        if not line.startswith("|"):
            break
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            keys.append(keys[-1].rsplit(".", 1)[0] + name if name.startswith(".") else name)
    return keys


def test_readme_config_table_names_exactly_the_accepted_keys():
    # the leaf keys: a key that is itself a block (a root key, scheme.gains)
    # is listed through its own keys
    accepted = {f"{path}.{key}" for path, keys in cli._KEYS.items() if path
                for key in keys if f"{path}.{key}" not in cli._KEYS}
    listed = readme_config_keys()
    assert len(listed) == len(set(listed)), "a key is listed twice"
    assert set(listed) == accepted
