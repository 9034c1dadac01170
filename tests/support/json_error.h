/**
 * @file
 * Test helper: is an emitted document strict JSON? It asks the one parser
 * (src/common/json.h), which accepts what Python's json.load accepts, so
 * a document that passes here round-trips through the schema checkers.
 */
#pragma once

#include <string>
#include <string_view>

#include "src/common/json.h"
#include "src/common/log.h"

namespace wsrs::test {

/** "" when @p text is exactly one strict JSON document, else the
 *  located parse error. */
inline std::string
jsonError(std::string_view text)
{
    try {
        parseJson(text, "document");
        return "";
    } catch (const FatalError &e) {
        return e.what();
    }
}

} // namespace wsrs::test
