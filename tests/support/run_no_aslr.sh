#!/bin/sh
# Run a test binary with address-space layout randomization disabled.
#
# gtest prints a parameter that has no printer as its raw bytes, pointer
# fields included, and gtest_discover_tests puts that text into the ctest
# name. Under ASLR those names change from build to build. Running
# discovery and the tests through this wrapper pins the load address, so
# the names depend only on the binary. Used as the CROSSCOMPILING_EMULATOR
# of such test binaries (see tests/CMakeLists.txt).
exec setarch "$(uname -m)" -R "$@"
