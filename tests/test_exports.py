"""The package's public names: each export resolves, and removed ones stay gone."""

import haarkit


def test_every_exported_name_resolves():
    assert len(set(haarkit.__all__)) == len(haarkit.__all__)
    for name in haarkit.__all__:
        assert getattr(haarkit, name) is not None, name


def test_removed_names_are_not_exported():
    for name in ("Quaternion", "reynolds_finite", "GroupElement", "integrate_scalar", "invert_cdf",
                 "closed_form_density"):
        assert name not in haarkit.__all__
        assert not hasattr(haarkit, name)
