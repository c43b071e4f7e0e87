/* Forward elimination of a dense system (§6: a loop nest that does not
 * vectorize still pays for its dependence analysis). The row update's
 * inner loop starts at the symbolic column `k + 1`, an affine lower bound
 * that strength reduction folds into the pointers it starts; the loop
 * stays scalar, as rows `i` and `k` of one array are not proven apart. */
float a[16][16];
float b[16];

void eliminate(int n)
{
    int i, j, k;
    float m;
    for (k = 0; k < n - 1; k++) {
        for (i = k + 1; i < n; i++) {
            m = a[i][k] / a[k][k];
            for (j = k + 1; j < n; j++)
                a[i][j] = a[i][j] - m * a[k][j];
            b[i] = b[i] - m * b[k];
        }
    }
}

int main(void)
{
    int i, j;
    for (i = 0; i < 16; i++) {
        for (j = 0; j < 16; j++)
            a[i][j] = 1.0f / (i + j + 1);
        a[i][i] = a[i][i] + 16.0f;
        b[i] = i + 1;
    }
    eliminate(16);
    return (int)(b[15] * 100.0f);
}
