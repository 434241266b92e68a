import ast
import dataclasses
import types
from pathlib import Path

import tensorgds
from tensorgds.pipeline import PipelineConfig

# PipelineConfig fields that no code reads, each with the reason it stays.
UNREAD_FIELDS = {
    # both values run the one band search; old models, config files and the
    # benchmark workloads still spell it
    "gds_search",
}


def test_all_lists_exactly_the_imported_public_names():
    # a name deleted from a module cannot linger in __all__, and a new export
    # cannot be left out of it
    names = tensorgds.__all__
    assert names == sorted(names)
    assert all(hasattr(tensorgds, name) for name in names)
    public = {
        name
        for name, value in vars(tensorgds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


def test_every_config_field_is_read_outside_the_config_class():
    # a setting that nothing reads changes no run; reads are attribute loads
    # on a name ending in `config` or on a `.config` attribute, such as
    # `config.method` or `model.config.classifier`
    read = set()
    for path in Path(tensorgds.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "PipelineConfig"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and id(node) not in inside:
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id.endswith("config")) or (
                    isinstance(owner, ast.Attribute) and owner.attr == "config"
                ):
                    read.add(node.attr)
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert fields - read == UNREAD_FIELDS
