// Self-test fixture: querying the hardware thread count outside
// src/common/parallel.cpp must trip the `hw_concurrency` rule.
#include <thread>

unsigned workers() { return std::thread::hardware_concurrency(); }
