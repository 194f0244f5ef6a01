#include "simgpu/KernelLaunch.hpp"

#include "util/Logging.hpp"

namespace gsuite {

void
KernelLaunch::buildFullTrace(int64_t cta, int warp,
                             WarpTrace &out) const
{
    out.clear();
    panicIf(!streamTrace, "KernelLaunch without a trace generator");
    WarpTraceStream stream = streamTrace(cta, warp);
    uint8_t cursor = 0;
    // An effectively-unbounded budget drains the stream in one call
    // per chunk; loop in case a generator still chooses to suspend.
    for (;;) {
        TraceBuilder tb(out, ~size_t{0}, cursor);
        if (stream(tb))
            break;
    }
}

const char *
kernelClassShortForm(KernelClass k)
{
    switch (k) {
      case KernelClass::IndexSelect: return "is";
      case KernelClass::Scatter: return "sc";
      case KernelClass::Sgemm: return "sg";
      case KernelClass::SpGemm: return "sp";
      case KernelClass::SpMM: return "sp";
      case KernelClass::Elementwise: return "ew";
      case KernelClass::Aux: return "other";
    }
    panic("unknown KernelClass");
}

const char *
kernelClassName(KernelClass k)
{
    switch (k) {
      case KernelClass::IndexSelect: return "indexSelect";
      case KernelClass::Scatter: return "scatter";
      case KernelClass::Sgemm: return "sgemm";
      case KernelClass::SpGemm: return "SpGEMM";
      case KernelClass::SpMM: return "SpMM";
      case KernelClass::Elementwise: return "elementwise";
      case KernelClass::Aux: return "other";
    }
    panic("unknown KernelClass");
}

} // namespace gsuite
