/* struct_matrix.c with 8x8 matrices: the inner loops run 8 trips, too many
 * to unroll, so the vertex loop is sunk below them and `acc` becomes one
 * 256-element vector per row. */
struct matrix {
    float m[8][8];
};
struct vertex {
    float v[8];
};

struct matrix xf;
struct vertex pts[256], out_pts[256];

int main(void)
{
    int i, r, c;
    float acc;
    for (i = 0; i < 256; i++) {
        for (r = 0; r < 8; r++) {
            acc = 0.0f;
            for (c = 0; c < 8; c++)
                acc += xf.m[r][c] * pts[i].v[c];
            out_pts[i].v[r] = acc;
        }
    }
    return 0;
}
