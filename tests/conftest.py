import pytest

from regen_figures import write_figures


@pytest.fixture(scope="session")
def figures(tmp_path_factory):
    """Every ``washboard fig`` preset, run once per session: (folder of the
    CSVs, preset name -> exit code)."""
    folder = tmp_path_factory.mktemp("figures")
    return folder, write_figures(folder)
