/**
 * @file
 * Forwarding header: the strict JSON parser lives in src/common/json.h.
 * It remains only for ledger/ledger_bench.cc, which names svc::JsonValue
 * and svc::parseJson; new code includes src/common/json.h.
 */
#pragma once

#include "src/common/json.h"

namespace wsrs::svc {

using wsrs::JsonValue;
using wsrs::parseJson;

} // namespace wsrs::svc
