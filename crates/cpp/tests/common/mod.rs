//! STL-misuse programs shared by the C++ integration suites: Figure 10's
//! `compose1`/`bind1st` call and a `bind2nd` argument swap.

pub const SCENARIOS: &[(&str, &str)] = &[
    (
        "figure10",
        "#include <algorithm>\n\
         #include <vector>\n\
         #include <functional>\n\
         using namespace std;\n\
         \n\
         void myFun(vector<long>& inv, vector<long>& outv) {\n\
           transform(inv.begin(), inv.end(), outv.begin(),\n\
                     compose1(bind1st(multiplies<long>(), 5), labs));\n\
         }\n",
    ),
    (
        "bind2nd_swap",
        "#include <algorithm>\n\
         #include <vector>\n\
         #include <functional>\n\
         using namespace std;\n\
         \n\
         void keep(vector<long>& v) {\n\
           remove_if(v.begin(), v.end(), bind2nd(less<long>(), v));\n\
         }\n",
    ),
];
