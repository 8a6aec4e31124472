"""Douglas-Rachford splitting QP toolkit with an unrolled warm-start network."""

from .sparse import (DimensionError, Factorization, SingularMatrixError,
                     SparseMatrix, spmv)
from .model import (ConeSpec, ConicQP, MonotoneData, Operator, QualityMetrics,
                    StandardQP, assemble_inclusion, project_cone_dual, quality, read_instance,
                    to_conic, write_instance)
from .solvers import (IterateState, SolveReport, SolverConfig, dr_solve,
                      dr_solve_batch, drgd_solve, drgd_solve_batch, step_size_cap,
                      warm_start_from_solution)
from .net import (NetParams, TrainConfig, adam_step, backward, emulation_params,
                  forward, init_params, load_checkpoint, loss, save_checkpoint,
                  train)
from .datagen import (DatasetBundle, GenSpec, gen_portfolio, gen_qp_perturbed,
                      gen_qp_rhs, generate, label_bundle, read_bundle,
                      split_bundle, write_bundle)

__version__ = "0.1.0"
