import ast
import dataclasses
import types
from pathlib import Path

import tensorgds
from tensorgds.pipeline import PipelineConfig, TrainedModel

# PipelineConfig fields that no code reads, each with the reason it stays.
UNREAD_FIELDS = {
    # its one value names the one band search; the benchmark workloads still
    # spell it
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


def test_a_model_takes_only_what_fit_chose():
    # the modes, dims, per-mode ambients and class ids are derived from the
    # config, the tensor extents and the reference labels, so no copy of
    # them can disagree with its source
    init = [f.name for f in dataclasses.fields(TrainedModel) if f.init]
    assert init == [
        "config",
        "data_dims",
        "gds",
        "weights",
        "references",
        "fisher_raw",
        "fisher",
        "angle_diag",
        "search_trace",
    ]


def test_the_config_holds_only_the_named_settings():
    # each field is a flag, a config-file key and a model key, so a new
    # setting must be named here; the Karcher stopping rule is not one
    fields = [f.name for f in dataclasses.fields(PipelineConfig)]
    assert fields == [
        "method",
        "modes_used",
        "energy_mu",
        "per_mode_dims",
        "angle_counts",
        "gds_alpha_max",
        "gds_search",
        "classifier",
        "full_spectrum",
    ]


def calls_of(name: str):
    """Per package module, each top-level definition (or `<module>`) that
    calls `name`, by plain name or as an attribute."""
    for path in Path(tensorgds.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    if getattr(func, "attr", getattr(func, "id", None)) == name:
                        yield path.name, getattr(stmt, "name", "<module>")


def definitions():
    """Per package module, its name and the names of the functions and
    classes it defines at any depth and of the constants it assigns at the
    top level."""
    for path in Path(tensorgds.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        yield path.name, {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        } | {
            target.id
            for stmt in tree.body
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }


def test_bands_are_built_only_in_the_gds_module():
    # one module holds the band rule: every other module gets its bands from
    # `mode_gram`, `full_band` or `gds_from_gram`
    assert {module for module, _ in calls_of("GdsBasis")} == {"gds.py"}


def test_mode_weights_is_called_only_by_the_weighting_rule():
    # one function holds `fit`'s weighting rule: `fit` and the model reader
    # both get their weights from `pipeline.method_weights`
    assert set(calls_of("mode_weights")) == {("pipeline.py", "method_weights")}


def test_fisher_builds_no_subspace_and_no_spectrum_type_remains():
    # Karcher means and separability work on stacks of bases end to end, and
    # energy dimensions are read off plain arrays of eigenvalues
    assert not [where for where in calls_of("Subspace") if where[0] == "fisher.py"]
    for path in Path(tensorgds.__file__).parent.glob("*.py"):
        assert "SingularSpectrum" not in path.read_text(), path.name


def test_sample_bases_come_from_one_helper():
    # `fit` and the queries take their sample bases from `pipeline._mode_bases`,
    # from one Gram per sample; besides it, only `_fit_mode` takes a spectrum,
    # for its class bases. No unfolding is copied or factored on the way
    def callers(name):
        return {where for module, where in calls_of(name) if module == "pipeline.py"}

    assert callers("unfolding_gram") == {"_mode_bases"}
    for name in ("gram_spectrum", "leading_basis"):
        assert callers(name) == {"_mode_bases", "_fit_mode"}, name
    assert not callers("unfold") and not callers("qr")
    retired = {"basis_from_unfolding", "lq_factor", "left_factor", "left_singular"}
    for module, defined in definitions():
        assert not defined & retired, module


def test_canonical_angles_come_from_one_kernel():
    # every canonical angle is the arccosine of `canonical_correlations`,
    # called directly; the per-pair wrappers around it and the helpers that
    # grouped bases by shape apart from `subspace.group_by_shape` are gone
    assert set(calls_of("canonical_correlations")) == {
        ("manifold.py", "weighted_geodesics"),
        ("subspace.py", "geodesic_distance"),
        ("pipeline.py", "_class_pair_mean_angle"),
    }
    retired = {
        "_shape_groups",
        "point_stacks",
        "principal_angles",
        "mean_canonical_angle",
        "projector",
        "fisher_mode",
        "AngleSpectrum",
    }
    for module, defined in definitions():
        assert not defined & retired, module


def test_cross_product_svds_come_from_one_helper():
    # every SVD of a k x k basis cross product, for the canonical
    # correlations and the Karcher mean tangent, goes through
    # `subspace.cross_svd`, which alone picks the closed form or LAPACK; the
    # other SVDs are of an unfolding in `hosvd` and a projection G^T U. The
    # exp map takes a tangent's Gram to `eigh`, and no per-member log map or
    # block size of one is left beside the mean tangent
    assert set(calls_of("cross_svd")) == {
        ("subspace.py", "canonical_correlations"),
        ("fisher.py", "_mean_tangent"),
    }
    assert set(calls_of("svd")) == {
        ("subspace.py", "cross_svd"),
        ("tensor.py", "hosvd"),
        ("gds.py", "project_onto_gds"),
    }
    for module, defined in definitions():
        assert not defined & {"_log_map", "LOG_MAP_BLOCK"}, module


def test_separability_and_karcher_means_have_few_callers():
    # a fit scores the raw bases and every band candidate in one
    # `fisher_modes` call, made by the band search or, for `pgm`, by `fit`;
    # Karcher means are taken only there and for the class-karcher means
    assert set(calls_of("fisher_modes")) == {
        ("pipeline.py", "optimize_gds_dims"),
        ("pipeline.py", "fit"),
    }
    assert set(calls_of("karcher_means")) == {
        ("fisher.py", "fisher_modes"),
        ("pipeline.py", "_class_mean_stacks"),
    }
