#include "sim/env_flags.hh"

#include <cstdlib>

namespace accesys {

namespace {

EnvFlags read_env()
{
    EnvFlags f;
    if (const char* v = std::getenv("ACCESYS_FAULTS")) {
        f.faults = v[0] != '0';
    }
    if (const char* v = std::getenv("ACCESYS_CKPT")) {
        f.ckpt = v[0] != '0';
    }
    return f;
}

EnvFlags& snapshot()
{
    static EnvFlags flags = read_env();
    return flags;
}

} // namespace

const EnvFlags& EnvFlags::get()
{
    return snapshot();
}

void EnvFlags::set_for_test(const EnvFlags& flags)
{
    snapshot() = flags;
}

} // namespace accesys
