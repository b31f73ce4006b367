// Tests for the error helpers: ensure/panic raise SimError, require_cfg
// raises ConfigError, strcat_msg formats their messages.
#include <gtest/gtest.h>

#include <string>

#include "sim/error.hh"

namespace accesys {
namespace {

TEST(ErrorHelpers, EnsurePassesAndThrows)
{
    EXPECT_NO_THROW(ensure(true, "fine"));
    EXPECT_THROW(ensure(false, "bad thing ", 7), SimError);
    try {
        ensure(false, "bad thing ", 7);
    } catch (const SimError& e) {
        EXPECT_NE(std::string(e.what()).find("bad thing 7"),
                  std::string::npos);
    }
}

TEST(ErrorHelpers, PanicAlwaysThrows)
{
    EXPECT_THROW(panic("unreachable ", 1), SimError);
}

TEST(ErrorHelpers, RequireCfgThrowsConfigError)
{
    EXPECT_NO_THROW(require_cfg(true, "ok"));
    EXPECT_THROW(require_cfg(false, "bad config"), ConfigError);
}

TEST(ErrorHelpers, StrcatMsgFormats)
{
    EXPECT_EQ(strcat_msg("a=", 1, " b=", 2.5), "a=1 b=2.5");
}

} // namespace
} // namespace accesys
