"""MPI+X combinations (paper: "OpenMP, CUDA, HIP and their combinations
with MPI"): the distributed drivers run each rank on any on-node backend
and produce identical physics."""
import numpy as np
import pytest

from repro.apps.cabana import CabanaConfig, StructuredCabanaReference
from repro.apps.cabana.distributed import DistributedCabana
from repro.apps.fempic import FemPicConfig, FemPicSimulation

CFG_FEM = FemPicConfig.smoke().scaled(n_steps=6, dt=0.2)
CFG_CAB = CabanaConfig.smoke().scaled(n_steps=6)


@pytest.fixture(scope="module")
def fem_reference():
    sim = FemPicSimulation(CFG_FEM)
    sim.run()
    return sim.history["field_energy"]


@pytest.fixture(scope="module")
def cab_reference():
    ref = StructuredCabanaReference(CFG_CAB)
    ref.run()
    return ref.history["e_energy"]


@pytest.mark.parametrize("backend", ["seq", "omp", "cuda", "hip"])
def test_mpi_plus_x_fempic(fem_reference, backend):
    dist = FemPicSimulation(CFG_FEM.scaled(backend=backend), nranks=2)
    dist.run()
    np.testing.assert_allclose(dist.history["field_energy"],
                               fem_reference, rtol=1e-10)


@pytest.mark.parametrize("backend", ["omp", "cuda", "hip"])
def test_mpi_plus_x_cabana(cab_reference, backend):
    dist = DistributedCabana(CFG_CAB.scaled(backend=backend), nranks=2)
    dist.run()
    a = np.array(dist.history["e_energy"])
    b = np.array(cab_reference)
    assert np.abs(a - b).max() / b.max() < 1e-12


def test_mpi_cuda_records_device_extras():
    dist = DistributedCabana(CFG_CAB.scaled(backend="cuda"), nranks=2)
    dist.run()
    st = dist.ranks[0].ctx.perf.get("Interpolate")
    assert st.extras.get("device") == "cuda"
