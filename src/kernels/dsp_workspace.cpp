#include "kernels/dsp_workspace.hpp"

namespace hbrp::kernels {

DspWorkspace& thread_workspace() {
  thread_local DspWorkspace workspace;
  return workspace;
}

}  // namespace hbrp::kernels
